package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"medmaker"
)

// The traced run attributes time to layers from outside the program: a
// timing decorator around each source records every exchange, a decorator
// around the served mediator records each remote request, and the client
// times its calls into the public API one by one. Spans stay in memory;
// the per-layer metrics are computed from them when the pass ends.

// Source indexes for per-source accounting.
const (
	srcWhois = iota // the semistruct wrapper
	srcCS           // the relational wrapper
	nSources
)

// interval is one exchange of one request.
type interval struct {
	src        int
	start, end int64 // ns since the tracer's epoch
}

// request is a span that exchanges nest in: one ExecuteContext or
// QueryContext call in process, one query served to a remote client, or
// one insert (whois Add plus cs Insert, with their synchronous delta
// maintenance).
type request struct {
	write      bool
	start, end int64
	exch       []interval
}

type reqKey struct{}

// span names the client-side calls the tracer sums.
type span int

const (
	spanParse  span = iota // ParseQuery / TranslateLorel
	spanExpand             // ExpandContext, measured beside the served path
	spanPlan               // PlanContext: expansion plus planning
	spanRTT                // remote round trip seen by the client
	spanAdd                // RecordStore.Add, including delta work
	spanInsert             // Table.Insert, including delta work
	nSpans
)

// tracer records spans and counts for one traced pass.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	// cur is the request of the single client's current call, for
	// exchanges whose context carries none (delta maintenance runs on a
	// background context).
	cur atomic.Uint64
	// paused drops everything while a system is rebuilt between episodes
	// or an episode is finished untimed.
	paused atomic.Bool

	mu      sync.Mutex
	reqs    map[uint64]*request
	orphans int // exchanges outside any request

	spans [nSpans]atomic.Int64
	calls [nSources]atomic.Int64
	rows  [nSources]atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), reqs: map[uint64]*request{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reset drops everything recorded so far (the warm-up's spans).
func (t *tracer) reset() {
	t.mu.Lock()
	t.reqs = map[uint64]*request{}
	t.orphans = 0
	t.mu.Unlock()
	for i := range t.spans {
		t.spans[i].Store(0)
	}
	for i := range t.calls {
		t.calls[i].Store(0)
		t.rows[i].Store(0)
	}
}

// add sums d into a client-side span.
func (t *tracer) add(s span, d time.Duration) {
	if !t.paused.Load() {
		t.spans[s].Add(int64(d))
	}
}

// begin opens a request and returns a context carrying its id (0, and
// nothing recorded, while paused).
func (t *tracer) begin(ctx context.Context, write bool) (context.Context, uint64) {
	if t.paused.Load() {
		return ctx, 0
	}
	id := t.next.Add(1)
	t.mu.Lock()
	t.reqs[id] = &request{write: write, start: t.now()}
	t.mu.Unlock()
	return context.WithValue(ctx, reqKey{}, id), id
}

// end closes request id.
func (t *tracer) end(id uint64) {
	if id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.reqs[id].end = now
	t.mu.Unlock()
}

// pause stops (or resumes) recording; nil-safe.
func (t *tracer) pause(on bool) {
	if t != nil {
		t.paused.Store(on)
		t.cur.Store(0)
	}
}

// exchange records one source exchange of the request ctx names (or the
// client's current request).
func (t *tracer) exchange(ctx context.Context, src int, start, end int64, rows int) {
	if t.paused.Load() {
		return
	}
	t.calls[src].Add(1)
	t.rows[src].Add(int64(rows))
	id, _ := ctx.Value(reqKey{}).(uint64)
	if id == 0 {
		id = t.cur.Load()
	}
	t.mu.Lock()
	if r := t.reqs[id]; r != nil {
		r.exch = append(r.exch, interval{src: src, start: start, end: end})
	} else {
		t.orphans++
	}
	t.mu.Unlock()
}

// layerTimes is the pass's time split, summed over every request.
type layerTimes struct {
	self     time.Duration           // read requests minus the time exchanges cover
	exchange [nSources]time.Duration // read requests' covered exchange time, by source
	served   time.Duration           // read requests' wall time
	orphans  int
}

// layers computes self and exchange time. Exchanges of one request may
// overlap (the engine fans bind-join batches across workers), so a
// request's exchange time is the union of its intervals, split between
// sources in proportion to their summed durations; self time is the
// request's duration minus that union. Write requests' exchanges belong
// to the write spans (Add, Insert) and are not counted here.
func (t *tracer) layers() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := layerTimes{orphans: t.orphans}
	for _, r := range t.reqs {
		if r.write || r.end == 0 {
			continue
		}
		dur := time.Duration(r.end - r.start)
		lt.served += dur
		covered, bySrc := cover(r.exch)
		lt.self += dur - covered
		var sum time.Duration
		for _, d := range bySrc {
			sum += d
		}
		for s, d := range bySrc {
			if sum > 0 {
				lt.exchange[s] += time.Duration(float64(covered) * float64(d) / float64(sum))
			}
		}
	}
	return lt
}

// cover returns the length of the union of the intervals and each
// source's summed interval length.
func cover(iv []interval) (time.Duration, [nSources]time.Duration) {
	var bySrc [nSources]time.Duration
	if len(iv) == 0 {
		return 0, bySrc
	}
	sorted := append([]interval(nil), iv...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	var total int64
	curStart, curEnd := sorted[0].start, sorted[0].end
	for _, x := range sorted {
		bySrc[x.src] += time.Duration(x.end - x.start)
		if x.start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = x.start, x.end
		} else if x.end > curEnd {
			curEnd = x.end
		}
	}
	total += curEnd - curStart
	return time.Duration(total), bySrc
}

// wrapperSource is what the bundled whois and cs wrappers implement: the
// Source interface plus every optional extension the engine, planner and
// mediator look for on them.
type wrapperSource interface {
	medmaker.ContextSource
	medmaker.BatchQuerier
	medmaker.ContextBatchQuerier
	CountLabel(label string) (int, bool)
	medmaker.ChangeNotifier
}

// timedSource is the timing decorator for a wrapper. It forwards every
// optional interface the wrapper has — hiding one would send the engine
// down another path (without BatchQuerier, one batched exchange becomes
// one exchange per probe).
type timedSource struct {
	inner wrapperSource
	src   int
	tr    *tracer
}

func (s *timedSource) Name() string                           { return s.inner.Name() }
func (s *timedSource) Capabilities() medmaker.Capabilities    { return s.inner.Capabilities() }
func (s *timedSource) CountLabel(label string) (int, bool)    { return s.inner.CountLabel(label) }
func (s *timedSource) OnChange(fn func(medmaker.SourceDelta)) { s.inner.OnChange(fn) }

func (s *timedSource) Query(q *medmaker.Rule) ([]*medmaker.Object, error) {
	return s.QueryContext(context.Background(), q)
}

func (s *timedSource) QueryContext(ctx context.Context, q *medmaker.Rule) ([]*medmaker.Object, error) {
	start := s.tr.now()
	objs, err := s.inner.QueryContext(ctx, q)
	s.tr.exchange(ctx, s.src, start, s.tr.now(), len(objs))
	return objs, err
}

func (s *timedSource) QueryBatch(qs []*medmaker.Rule) ([][]*medmaker.Object, error) {
	return s.QueryBatchContext(context.Background(), qs)
}

func (s *timedSource) QueryBatchContext(ctx context.Context, qs []*medmaker.Rule) ([][]*medmaker.Object, error) {
	start := s.tr.now()
	res, err := s.inner.QueryBatchContext(ctx, qs)
	rows := 0
	for _, r := range res {
		rows += len(r)
	}
	s.tr.exchange(ctx, s.src, start, s.tr.now(), rows)
	return res, err
}

// servedSource is what the mediator implements as a Source.
type servedSource interface {
	medmaker.ContextSource
	medmaker.BatchQuerier
	medmaker.ContextBatchQuerier
	OnInvalidate(fn func())
}

// timedMediator is the timing decorator for the mediator behind
// medmaker.Serve: each served query is one request.
type timedMediator struct {
	inner servedSource
	tr    *tracer
}

func (m *timedMediator) Name() string                        { return m.inner.Name() }
func (m *timedMediator) Capabilities() medmaker.Capabilities { return m.inner.Capabilities() }
func (m *timedMediator) OnInvalidate(fn func())              { m.inner.OnInvalidate(fn) }

func (m *timedMediator) Query(q *medmaker.Rule) ([]*medmaker.Object, error) {
	return m.QueryContext(context.Background(), q)
}

func (m *timedMediator) QueryContext(ctx context.Context, q *medmaker.Rule) ([]*medmaker.Object, error) {
	ctx, id := m.tr.begin(ctx, false)
	defer m.tr.end(id)
	return m.inner.QueryContext(ctx, q)
}

func (m *timedMediator) QueryBatch(qs []*medmaker.Rule) ([][]*medmaker.Object, error) {
	return m.QueryBatchContext(context.Background(), qs)
}

func (m *timedMediator) QueryBatchContext(ctx context.Context, qs []*medmaker.Rule) ([][]*medmaker.Object, error) {
	ctx, id := m.tr.begin(ctx, false)
	defer m.tr.end(id)
	return m.inner.QueryBatchContext(ctx, qs)
}
