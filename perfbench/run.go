package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// A run stands the system up at least minSetups times and until the
// setups add up to setupBudget (at most maxSetups times); setup_s is the
// median.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = time.Second
)

// slice is the length of the pieces a measured window is cut into: qps,
// p50_ms and p99_ms are medians over slices, so a few seconds of
// interference from other tenants of the machine move them little.
const slice = time.Second

// reconcileTolerance bounds |mediator.other_us| as a share of the traced
// end-to-end time per operation.
const reconcileTolerance = 0.10

type runConfig struct {
	w      *workload
	seed   int64
	window time.Duration
}

// prepared is a run's generated inputs: made once, before any timing.
type prepared struct {
	in sourceInputs
	st *stream
}

func prepare(cfg runConfig) prepared {
	pop := genPopulation(cfg.w.persons, cfg.seed)
	in := pop.inputs()
	return prepared{in: in, st: newStream(cfg.w, pop, cfg.seed)}
}

// warm runs the workload's untimed warm-up on sys, waits until no
// background replan or extent refresh is running, and generates the
// operations of a window ahead of it.
func warm(sys *system, st *stream, window time.Duration) error {
	wp := runPass(sys, st, 0, sys.w.warmup, 0)
	if wp.wrong != nil {
		return fmt.Errorf("warm-up: %w", wp.wrong)
	}
	if wp.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d operations failed", wp.failed, wp.attempted)
	}
	sys.med.WaitReplans()
	sys.med.WaitMatViews()
	rate := float64(wp.attempted) / wp.wall.Seconds()
	st.ensure(sys.w.warmup + int(2*rate*window.Seconds()) + 100)
	return nil
}

// runEndToEnd is the untraced run: set up repeatedly (setup_s is the
// median), warm up, then measure for the window.
func runEndToEnd(cfg runConfig) (result, error) {
	pre := prepare(cfg)
	w := cfg.w
	var sys *system
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	var setups []float64
	var spent time.Duration
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		sys, err = setup(w, pre.in, pre.st, nil)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	if err := warm(sys, pre.st, cfg.window); err != nil {
		return result{}, err
	}
	runtime.GC()
	p, d, last, err := measure(sys, pre, 0, cfg.window)
	sys = last
	if err != nil {
		return result{}, err
	}
	// heap_mb is the live heap the system holds: after a forced GC, with
	// the system and without it (the benchmark's own data is in both).
	sys.close()
	runtime.GC()
	var m2, m3 runtime.MemStats
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(sys)
	sys = nil
	runtime.GC()
	runtime.ReadMemStats(&m3)

	reads, writes := p.latencies(false), p.latencies(true)
	if len(reads) == 0 {
		return result{}, fmt.Errorf("no read completed")
	}
	if p.wrong != nil {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", p.wrong)
	}
	rates, p50s, p99s := sliceStats(p, cfg.window)
	res := result{Correct: p.wrong == nil && p.empties == 0, Attempted: p.attempted, Failed: p.failed}
	res.Metrics = map[string]metric{
		"setup_s":         {median(setups), "s"},
		"qps":             {median(rates), "1/s"},
		"p50_ms":          {median(p50s), "ms"},
		"p99_ms":          {median(p99s), "ms"},
		"alloc_kb_per_op": {float64(d[cAlloc]) / 1024 / float64(len(p.ops)), "KiB"},
		"heap_mb":         {(float64(m2.HeapAlloc) - float64(m3.HeapAlloc)) / (1 << 20), "MiB"},
	}
	logLine("reads", "n=%d p50_ms=%.4f p99_ms=%.4f (whole window) slices=%d", len(reads), ms(quantile(reads, 0.5)), ms(quantile(reads, 0.99)), len(p50s))
	if len(writes) > 0 {
		logLine("writes", "n=%d write_p50_ms=%.4f write_p99_ms=%.4f", len(writes), ms(quantile(writes, 0.5)), ms(quantile(writes, 0.99)))
	}
	logLine("oracle", "fail_frac=%.6f empty_frac=%.6f ryw_checked=%d wrong=%v",
		float64(p.failed)/float64(p.attempted), float64(p.empties)/float64(len(reads)), p.ryw, p.wrong != nil)
	logLine("setup", "reps=%d median_s=%.6f", len(setups), median(setups))
	return res, nil
}

// runTraced runs the same stretch of operations twice on fresh systems:
// untraced for half the window, then traced for exactly as many
// operations. It checks that tracing changed nothing the program counts
// and that the layer times reconcile with the traced end-to-end time.
func runTraced(cfg runConfig) (result, error) {
	pre := prepare(cfg)
	w := cfg.w

	sysA, err := setup(w, pre.in, pre.st, nil)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	if err := warm(sysA, pre.st, cfg.window/2); err != nil {
		sysA.close()
		return result{}, err
	}
	runtime.GC()
	pa, dA, sysA, err := measure(sysA, pre, 0, cfg.window/2)
	if sysA != nil {
		sysA.close()
	}
	if err != nil {
		return result{}, err
	}

	tr := newTracer()
	sysB, err := setup(w, pre.in, pre.st, tr)
	if err != nil {
		return result{}, fmt.Errorf("traced setup: %w", err)
	}
	if err := warm(sysB, pre.st, 0); err != nil {
		sysB.close()
		return result{}, err
	}
	runtime.GC()
	tr.reset()
	pb, dB, sysB, err := measure(sysB, pre, pa.attempted, 0)
	if sysB != nil {
		defer sysB.close()
	}
	if err != nil {
		return result{}, err
	}

	res := result{Attempted: pa.attempted + pb.attempted, Failed: pa.failed + pb.failed}
	correct := pa.wrong == nil && pb.wrong == nil && pa.empties == 0 && pb.empties == 0
	for _, e := range []error{pa.wrong, pb.wrong} {
		if e != nil {
			fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", e)
		}
	}
	// Fidelity: the decorators must not change what the program does.
	same := pa.digest == pb.digest && pa.attempted == pb.attempted &&
		dA[cExchanges] == dB[cExchanges] && dA[cQueries] == dB[cQueries] &&
		dA[cMvDeltas] == dB[cMvDeltas] && dA[cMvFallbacks] == dB[cMvFallbacks]
	logLine("fidelity", "same=%v ops=%d/%d exchanges=%d/%d queries=%d/%d matview_deltas=%d/%d fallbacks=%d/%d",
		same, pa.attempted, pb.attempted, dA[cExchanges], dB[cExchanges], dA[cQueries], dB[cQueries],
		dA[cMvDeltas], dB[cMvDeltas], dA[cMvFallbacks], dB[cMvFallbacks])

	n := float64(pb.attempted)
	perOp := func(d time.Duration) float64 { return float64(d) / 1e3 / n }
	sp := func(s span) time.Duration { return time.Duration(tr.spans[s].Load()) }
	lt := tr.layers()
	var opTotal time.Duration
	for _, r := range pb.ops {
		opTotal += r.lat
	}
	var wire time.Duration
	if w.remote {
		wire = sp(spanRTT) - lt.served
	}
	layers := map[string]float64{
		"msl.parse_us":           perOp(sp(spanParse)),
		"veao.expand_us":         perOp(sp(spanExpand)),
		"plan.plan_us":           perOp(sp(spanPlan) - sp(spanExpand)),
		"engine.self_us":         perOp(lt.self),
		"semistruct.exchange_us": perOp(lt.exchange[srcWhois]),
		"relational.exchange_us": perOp(lt.exchange[srcCS]),
		"semistruct.add_us":      perOp(sp(spanAdd)),
		"relational.insert_us":   perOp(sp(spanInsert)),
		"remote.wire_us":         perOp(wire),
	}
	var covered float64
	for _, v := range layers {
		covered += v
	}
	opUs := perOp(opTotal)
	other := opUs - covered
	reconciled := opUs > 0 && math.Abs(other) <= reconcileTolerance*opUs
	logLine("reconcile", "op_us=%.3f layers_us=%.3f other_us=%.3f tolerance=%.0f%% ok=%v orphan_exchanges=%d",
		opUs, covered, other, reconcileTolerance*100, reconciled, lt.orphans)
	res.Correct = correct && same && reconciled

	readsA, readsB := pa.latencies(false), pb.latencies(false)
	writes := float64(len(pb.ops) - len(readsB))
	m := map[string]metric{}
	for k, v := range layers {
		m[k] = metric{v, "us/op"}
	}
	m["mediator.other_us"] = metric{other, "us/op"}
	m["trace.op_us"] = metric{opUs, "us/op"}
	m["trace.overhead_pct"] = metric{100 * (ms(quantile(readsB, 0.5)) - ms(quantile(readsA, 0.5))) / ms(quantile(readsA, 0.5)), "%"}
	m["plan.cache_hit_ratio"] = metric{ratio(float64(dB[cPlanHits]), float64(dB[cPlanHits]+dB[cPlanMisses])), "ratio"}
	m["plan.replans_per_kop"] = metric{1000 * float64(dB[cReplans]) / n, "count/kop"}
	m["engine.exchanges_per_op"] = metric{float64(dB[cExchanges]) / n, "count/op"}
	m["engine.queries_per_exchange"] = metric{ratio(float64(dB[cQueries]), float64(dB[cExchanges])), "count"}
	m["semistruct.rows_per_exchange"] = metric{ratio(float64(tr.rows[srcWhois].Load()), float64(tr.calls[srcWhois].Load())), "count"}
	m["matview.hit_ratio"] = metric{ratio(float64(dB[cMvHits]), float64(dB[cMvHits]+dB[cMvMisses])), "ratio"}
	m["matview.deltas_per_write"] = metric{ratio(float64(dB[cMvDeltas]), writes), "count"}
	m["matview.fallbacks_per_kwrite"] = metric{ratio(1000*float64(dB[cMvFallbacks]), writes), "count"}
	m["wrapper.cache_hit_ratio"] = metric{ratio(float64(dB[cCacheHits]), float64(dB[cCacheHits]+dB[cCacheMisses])), "ratio"}
	m["runtime.gc_per_kop"] = metric{1000 * float64(dB[cGCs]) / n, "count/kop"}
	res.Metrics = m
	logLine("passes", "untraced n=%d p50_ms=%.4f traced n=%d p50_ms=%.4f ryw_checked=%d/%d fail_frac=%.6f",
		len(readsA), ms(quantile(readsA, 0.5)), len(readsB), ms(quantile(readsB, 0.5)), pa.ryw, pb.ryw,
		float64(res.Failed)/float64(res.Attempted))
	return res, nil
}

// sliceStats cuts the window into slices and returns, for each slice with
// at least two completions, the completion rate (completions after the
// first over the time from the first to the last) and the 50th and 99th
// percentile read latency.
func sliceStats(p *passResult, window time.Duration) (rates, p50s, p99s []float64) {
	n := int(window / slice)
	if n < 1 {
		n = 1
	}
	buckets := make([][]opRecord, n)
	for _, r := range p.ops {
		if k := int(r.done / slice); k < n {
			buckets[k] = append(buckets[k], r)
		}
	}
	for _, b := range buckets {
		if len(b) < 2 {
			continue
		}
		first, last := b[0].done, b[0].done
		var reads []time.Duration
		for _, r := range b {
			if r.done < first {
				first = r.done
			}
			if r.done > last {
				last = r.done
			}
			if !r.write {
				reads = append(reads, r.lat)
			}
		}
		if last > first {
			rates = append(rates, float64(len(b)-1)/(last-first).Seconds())
		}
		if len(reads) > 0 {
			p50s = append(p50s, ms(quantile(reads, 0.5)))
			p99s = append(p99s, ms(quantile(reads, 0.99)))
		}
	}
	if len(rates) == 0 {
		rates = []float64{float64(len(p.ops)) / window.Seconds()}
	}
	return rates, p50s, p99s
}

func logLine(tag, format string, args ...any) {
	fmt.Printf("# %-9s "+format+"\n", append([]any{tag}, args...)...)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, and 0 when b is 0 (nothing to count).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
