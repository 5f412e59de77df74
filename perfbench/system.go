package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"medmaker"
)

// opTimeout bounds every operation; an operation that exceeds it counts as
// failed.
const opTimeout = 30 * time.Second

// inserter is the cs table's Insert method (the table type is internal to
// medmaker, so it is held through the method it offers).
type inserter interface{ Insert(vals ...any) error }

// system is one stood-up mediator with its sources and, for a served
// workload, its server and the client's connection.
type system struct {
	w     *workload
	med   *medmaker.Mediator
	store *medmaker.RecordStore
	emp   inserter
	stu   inserter
	srv   *medmaker.RemoteServer
	conn  *medmaker.RemoteClient
	tr    *tracer // nil when untraced
}

func (s *system) close() {
	if s.conn != nil {
		s.conn.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.med.WaitReplans()
	s.med.WaitMatViews()
}

// setup stands a system up from generated inputs through the public API:
// source loads, New, Serve and DialSource, plan-cache priming, the matview
// build, and waiting out background replans and refreshes. tr non-nil
// puts the timing decorators in place.
func setup(w *workload, in sourceInputs, st *stream, tr *tracer) (*system, error) {
	store := medmaker.NewRecordStore()
	if err := store.Add(in.records...); err != nil {
		return nil, fmt.Errorf("load whois: %w", err)
	}
	db := medmaker.NewRelationalDB()
	if err := medmaker.LoadCSV(db, "employee", strings.NewReader(in.employee)); err != nil {
		return nil, fmt.Errorf("load cs: %w", err)
	}
	if err := medmaker.LoadCSV(db, "student", strings.NewReader(in.student)); err != nil {
		return nil, fmt.Errorf("load cs: %w", err)
	}
	emp, _ := db.Table("employee")
	stu, _ := db.Table("student")
	var whois, cs medmaker.Source = medmaker.NewRecordWrapper("whois", store), medmaker.NewRelationalWrapper("cs", db)
	if tr != nil {
		whois = &timedSource{inner: whois.(wrapperSource), src: srcWhois, tr: tr}
		cs = &timedSource{inner: cs.(wrapperSource), src: srcCS, tr: tr}
	}
	cfg := medmaker.Config{Name: "med", Spec: specMS1, Sources: []medmaker.Source{whois, cs}}
	if w.planCache > 0 {
		cfg.PlanCache = &medmaker.PlanCacheOptions{MaxEntries: w.planCache}
	}
	if w.answers {
		cfg.Cache = &medmaker.CacheOptions{MaxEntries: 4096}
	}
	if w.matview {
		cfg.Materialize = &medmaker.MatViewOptions{Views: []medmaker.MatView{{Label: "cs_person"}}}
	}
	med, err := medmaker.New(cfg)
	if err != nil {
		return nil, err
	}
	sys := &system{w: w, med: med, store: store, emp: emp, stu: stu, tr: tr}
	if w.remote {
		var served medmaker.Source = med
		if tr != nil {
			served = &timedMediator{inner: med, tr: tr}
		}
		addr, srv, err := medmaker.Serve(served, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		sys.srv = srv
		if sys.conn, err = medmaker.DialSource(addr, opTimeout); err != nil {
			sys.close()
			return nil, err
		}
	}
	if err := sys.prime(st); err != nil {
		sys.close()
		return nil, err
	}
	med.WaitMatViews()
	med.WaitReplans()
	return sys, nil
}

// prime brings caches to steady state: lookup compiles its whole working
// set into the plan cache, fullview its four query texts, churn builds the
// cs_person extent. Every priming answer is checked.
func (s *system) prime(st *stream) error {
	var ops []op
	switch {
	case s.w.hot > 0:
		for _, p := range st.hot {
			ops = append(ops, pointQuery(p))
		}
	case s.w.matview:
		if err := s.med.Refresh(context.Background(), "cs_person"); err != nil {
			return fmt.Errorf("matview build: %w", err)
		}
	case s.w.planCache > 0:
		ops = st.firstRound()
	}
	for _, o := range ops {
		objs, err := s.read(context.Background(), o)
		if err == nil {
			_, err = checkAnswer(objs, o.want)
		}
		if err != nil {
			return fmt.Errorf("priming %q: %w", o.text, err)
		}
	}
	return nil
}

// read answers one query untraced, the way the workload's client does.
func (s *system) read(ctx context.Context, o op) ([]*medmaker.Object, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	switch {
	case s.w.remote:
		rule, err := medmaker.ParseQuery(o.text)
		if err != nil {
			return nil, err
		}
		return s.conn.QueryContext(ctx, rule)
	case o.kind == opLorel:
		return s.med.QueryLorelContext(ctx, o.text)
	default:
		return s.med.QueryStringContext(ctx, o.text)
	}
}

// insert adds a new person to both sources: the whois record, then the cs
// row. Each call runs the mediator's synchronous change-feed work.
func (s *system) insert(p *person) error {
	if err := s.store.Add(p.record()); err != nil {
		return err
	}
	if p.employee {
		return s.emp.Insert(p.first, p.last, p.title, p.reportsTo)
	}
	return s.stu.Insert(p.first, p.last, p.year)
}

// tracedRead is read with each public call timed. In process, the whole
// query is one request; on adhoc, whose served path is exactly
// parse→expand→plan→execute, the calls are made one by one, and
// expansion is timed again on its own after the operation to split
// PlanContext's time between expansion and planning.
func (s *system) tracedRead(ctx context.Context, o op) ([]*medmaker.Object, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	tr := s.tr
	t0 := time.Now()
	objs, rule, err := s.tracedCalls(ctx, o)
	lat := time.Since(t0)
	if err == nil && s.phased() {
		t1 := time.Now()
		_, err = s.med.ExpandContext(ctx, rule)
		tr.add(spanExpand, time.Since(t1))
	}
	return objs, lat, err
}

// phased reports a served path that is exactly parse→expand→plan→execute:
// in process, with no plan cache and no materialized view.
func (s *system) phased() bool { return !s.w.remote && s.w.planCache == 0 && !s.w.matview }

// tracedCalls makes one read's public calls, timing each, and returns
// the answer and the parsed rule.
func (s *system) tracedCalls(ctx context.Context, o op) ([]*medmaker.Object, *medmaker.Rule, error) {
	tr := s.tr
	t0 := time.Now()
	var rule *medmaker.Rule
	var err error
	if o.kind == opLorel {
		rule, err = medmaker.TranslateLorel(o.text)
	} else {
		rule, err = medmaker.ParseQuery(o.text)
	}
	tr.add(spanParse, time.Since(t0))
	if err != nil {
		return nil, nil, err
	}
	if s.w.remote {
		t1 := time.Now()
		objs, err := s.conn.QueryContext(ctx, rule)
		tr.add(spanRTT, time.Since(t1))
		return objs, rule, err
	}
	if !s.phased() {
		rctx, id := tr.begin(ctx, false)
		tr.cur.Store(id)
		objs, err := s.med.QueryContext(rctx, rule)
		tr.end(id)
		return objs, rule, err
	}
	t1 := time.Now()
	plan, _, err := s.med.PlanContext(ctx, rule)
	tr.add(spanPlan, time.Since(t1))
	if err != nil {
		return nil, nil, err
	}
	rctx, id := tr.begin(ctx, false)
	tr.cur.Store(id)
	objs, err := s.med.ExecuteContext(rctx, plan)
	tr.end(id)
	return objs, rule, err
}

// tracedInsert is insert with the two source calls timed; the
// synchronous delta work's exchanges belong to this write request.
func (s *system) tracedInsert(p *person) error {
	tr := s.tr
	_, id := tr.begin(context.Background(), true)
	tr.cur.Store(id)
	defer tr.end(id)
	t0 := time.Now()
	err := s.store.Add(p.record())
	tr.add(spanAdd, time.Since(t0))
	if err != nil {
		return err
	}
	t1 := time.Now()
	if p.employee {
		err = s.emp.Insert(p.first, p.last, p.title, p.reportsTo)
	} else {
		err = s.stu.Insert(p.first, p.last, p.year)
	}
	tr.add(spanInsert, time.Since(t1))
	return err
}
