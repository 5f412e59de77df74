package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"medmaker"
)

// opRecord is one completed operation of a pass.
type opRecord struct {
	done  time.Duration // completion, from the pass start
	lat   time.Duration
	write bool
}

// passResult is what one pass over a stretch of the stream observed.
type passResult struct {
	attempted, failed int
	ops               []opRecord
	wall              time.Duration
	wrong             error // first answer the oracle rejected
	empties, ryw      int
	digest            uint64 // order-independent hash of (op index, answer)
}

// latencies returns the read (or write) latencies of the pass.
func (p *passResult) latencies(write bool) []time.Duration {
	var out []time.Duration
	for _, r := range p.ops {
		if r.write == write {
			out = append(out, r.lat)
		}
	}
	return out
}

// runPass runs operations from index from on sys, until count of them
// have run (count > 0) or window has passed (window > 0). The client
// sends its next operation only after the previous one completes; a wrong
// answer ends the pass.
func runPass(sys *system, st *stream, from, count int, window time.Duration) *passResult {
	res := &passResult{}
	start := time.Now()
	for i := from; count == 0 || i < from+count; i++ {
		if window > 0 && time.Since(start) >= window {
			break
		}
		o := st.at(i)
		res.attempted++
		lat, err := sys.do(o, res, i)
		if err != nil {
			res.failed++
			continue
		}
		if res.wrong != nil {
			break
		}
		res.ops = append(res.ops, opRecord{done: time.Since(start), lat: lat, write: o.kind == opInsert})
	}
	res.wall = time.Since(start)
	return res
}

// merge adds q's outcomes to p, shifting q's completions by offset.
func (p *passResult) merge(q *passResult, offset time.Duration) {
	p.attempted += q.attempted
	p.failed += q.failed
	for _, r := range q.ops {
		r.done += offset
		p.ops = append(p.ops, r)
	}
	p.empties += q.empties
	p.ryw += q.ryw
	p.digest += q.digest
	if p.wrong == nil {
		p.wrong = q.wrong
	}
}

// measure runs the measured stretch of the stream on sys, after the
// warm-up: exactly count operations when count > 0, otherwise operations
// for window. It returns what the pass observed, the program's counts over
// it, and the system left standing. A workload with episodes runs each
// episode on a freshly set-up system (the set-up is not timed) and
// finishes a cut episode untimed, so what an operation costs does not
// depend on how many ran before it, and the final state is the same
// whatever the machine's speed.
func measure(sys *system, pre prepared, count int, window time.Duration) (*passResult, counters, *system, error) {
	w := sys.w
	if w.episode == 0 {
		c0 := readCounters(sys)
		p := runPass(sys, pre.st, w.warmup, count, window)
		sys.med.WaitReplans()
		sys.med.WaitMatViews()
		return p, readCounters(sys).sub(c0), sys, nil
	}
	res := &passResult{}
	var total counters
	tr := sys.tr
	for (count > 0 && res.attempted < count) || (count == 0 && res.wall < window) {
		tr.pause(true)
		sys.close()
		var err error
		if sys, err = setup(w, pre.in, pre.st, tr); err != nil {
			return nil, counters{}, nil, err
		}
		tr.pause(false)
		n, left := w.episode, time.Duration(0)
		if count > 0 && count-res.attempted < n {
			n = count - res.attempted
		}
		if count == 0 {
			left = window - res.wall
		}
		c0 := readCounters(sys)
		p := runPass(sys, pre.st, 0, n, left)
		total = total.add(readCounters(sys).sub(c0))
		res.merge(p, res.wall)
		res.wall += p.wall
		if p.wrong != nil || p.failed > 0 {
			break
		}
		if rest := w.episode - p.attempted; rest > 0 {
			tr.pause(true)
			f := runPass(sys, pre.st, p.attempted, rest, 0)
			tr.pause(false)
			if f.wrong != nil || f.failed > 0 {
				return nil, counters{}, sys, fmt.Errorf("finishing an episode: wrong=%v failed=%d", f.wrong, f.failed)
			}
		}
	}
	return res, total, sys, nil
}

// do runs operation i of the stream and checks its answer,
// recording oracle outcomes in pr. It returns the operation's latency;
// the check is not part of it.
func (s *system) do(o op, pr *passResult, i int) (time.Duration, error) {
	if o.kind == opInsert {
		t0 := time.Now()
		var err error
		if s.tr != nil {
			err = s.tracedInsert(o.p)
		} else {
			err = s.insert(o.p)
		}
		return time.Since(t0), err
	}
	var lat time.Duration
	var objs []*medmaker.Object
	var err error
	if s.tr != nil {
		objs, lat, err = s.tracedRead(context.Background(), o)
	} else {
		t0 := time.Now()
		objs, err = s.read(context.Background(), o)
		lat = time.Since(t0)
	}
	if err != nil {
		return lat, err
	}
	if len(objs) == 0 {
		pr.empties++
	}
	if o.ryw {
		pr.ryw++
	}
	got, err := checkAnswer(objs, o.want)
	if err != nil {
		pr.wrong = fmt.Errorf("operation %d %q: %w", i, o.text, err)
		return lat, nil
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", i)
	for _, g := range got {
		h.Write([]byte(g))
	}
	pr.digest += h.Sum64()
	return lat, nil
}

// counters are the program's own counts, read through its Stats
// accessors, and the Go runtime's allocation and GC counts.
type counters [nCounters]int64

const (
	cExchanges = iota
	cQueries
	cPlanHits
	cPlanMisses
	cReplans
	cMvHits
	cMvMisses
	cMvDeltas
	cMvFallbacks
	cCacheHits
	cCacheMisses
	cGCs
	cAlloc // bytes
	nCounters
)

func readCounters(s *system) counters {
	var c counters
	st := s.med.QueryStats()
	c[cExchanges], c[cQueries] = int64(st.TotalExchanges()), int64(st.TotalQueries())
	pc := s.med.PlanCacheStats()
	c[cPlanHits], c[cPlanMisses], c[cReplans] = int64(pc.Hits), int64(pc.Misses), int64(pc.Refreshed)
	mv := s.med.MatViewStats()
	c[cMvHits], c[cMvMisses], c[cMvDeltas], c[cMvFallbacks] = mv.Hits, mv.Misses, mv.Deltas, mv.DeltaFallbacks
	for _, cs := range s.med.CacheStats() {
		c[cCacheHits] += int64(cs.Hits)
		c[cCacheMisses] += int64(cs.Misses)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cGCs], c[cAlloc] = int64(ms.NumGC), int64(ms.TotalAlloc)
	return c
}

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) add(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}
