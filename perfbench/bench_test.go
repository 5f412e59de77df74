package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"medmaker"
)

// small returns a copy of w at a population small enough for tests.
func small(w *workload) *workload {
	c := *w
	if c.persons > 400 {
		c.persons = 400
	}
	if c.hot > 16 {
		c.hot = 16
	}
	c.warmup = 20
	return &c
}

func standUp(t *testing.T, w *workload, seed int64, tr *tracer) (*system, *stream) {
	t.Helper()
	cfg := runConfig{w: w, seed: seed}
	pre := prepare(cfg)
	sys, err := setup(w, pre.in, pre.st, tr)
	if err != nil {
		t.Fatalf("%s seed %d: setup: %v", w.name, seed, err)
	}
	t.Cleanup(sys.close)
	return sys, pre.st
}

// TestOracleFailsWrongAnswer hands the oracle a wrong expected answer
// and checks that the pass reports it.
func TestOracleFailsWrongAnswer(t *testing.T) {
	w := small(workloads[1]) // adhoc
	sys, st := standUp(t, w, 1, nil)
	st.ensure(1)
	st.mu.Lock()
	bad := append([]string(nil), st.ops[0].want...)
	bad[0] = strings.Replace(bad[0], "'", "'x", 1)
	st.ops[0].want = bad
	st.mu.Unlock()
	p := runPass(sys, st, 0, 1, 0)
	if p.wrong == nil {
		t.Fatalf("oracle accepted a wrong expected answer %q", bad[0])
	}
	// The same operation with its true expectation passes.
	p = runPass(sys, st, 1, 10, 0)
	if p.wrong != nil || p.failed != 0 {
		t.Fatalf("correct answers rejected: wrong=%v failed=%d", p.wrong, p.failed)
	}
}

// TestOracleFailsEmptyAnswer: an empty answer is never accepted.
func TestOracleFailsEmptyAnswer(t *testing.T) {
	if _, err := checkAnswer(nil, []string{"x{}"}); err == nil {
		t.Fatal("empty answer accepted")
	}
	if _, err := checkAnswer(nil, nil); err == nil {
		t.Fatal("empty expectation accepted")
	}
}

// TestSeedsGiveNonEmptyAnswers runs every workload on two seeds and
// checks that every expected answer is non-empty and every answer
// matches it, including read-your-writes on churn.
func TestSeedsGiveNonEmptyAnswers(t *testing.T) {
	for _, full := range workloads {
		w := small(full)
		for _, seed := range []int64{1, 2} {
			sys, st := standUp(t, w, seed, nil)
			p := runPass(sys, st, 0, 60, 0)
			if p.wrong != nil || p.failed != 0 || p.empties != 0 {
				t.Fatalf("%s seed %d: wrong=%v failed=%d empties=%d", w.name, seed, p.wrong, p.failed, p.empties)
			}
			for i := 0; i < 60; i++ {
				if o := st.at(i); o.kind != opInsert && len(o.want) == 0 {
					t.Fatalf("%s seed %d: operation %d %q expects an empty answer", w.name, seed, i, o.text)
				}
			}
			if w.matview && p.ryw == 0 {
				t.Fatalf("%s seed %d: no read-your-writes check ran", w.name, seed)
			}
		}
	}
}

// TestSeedChangesInputs: the same seed gives the same inputs, another
// seed different ones of the same shape.
func TestSeedChangesInputs(t *testing.T) {
	a, b, c := genPopulation(100, 1).inputs(), genPopulation(100, 1).inputs(), genPopulation(100, 2).inputs()
	if a.employee != b.employee || a.student != b.student {
		t.Fatal("same seed, different inputs")
	}
	if a.employee == c.employee {
		t.Fatal("different seeds, same inputs")
	}
	if strings.Count(a.employee, "\n") != strings.Count(c.employee, "\n") {
		t.Fatal("different seeds, different shapes")
	}
}

// The optional source interfaces the engine, planner and mediator test
// for.
type (
	contextSource interface {
		QueryContext(context.Context, *medmaker.Rule) ([]*medmaker.Object, error)
	}
	batchQuerier interface {
		QueryBatch([]*medmaker.Rule) ([][]*medmaker.Object, error)
	}
	contextBatchQuerier interface {
		QueryBatchContext(context.Context, []*medmaker.Rule) ([][]*medmaker.Object, error)
	}
	counter        interface{ CountLabel(string) (int, bool) }
	changeNotifier interface {
		OnChange(func(medmaker.SourceDelta))
	}
	invalidator interface{ OnInvalidate(func()) }
)

func optional(s medmaker.Source) [6]bool {
	_, a := s.(contextSource)
	_, b := s.(batchQuerier)
	_, c := s.(contextBatchQuerier)
	_, d := s.(counter)
	_, e := s.(changeNotifier)
	_, f := s.(invalidator)
	return [6]bool{a, b, c, d, e, f}
}

// TestDecoratorsForwardEveryInterface: each timing decorator implements
// exactly the optional interfaces of what it wraps.
func TestDecoratorsForwardEveryInterface(t *testing.T) {
	tr := newTracer()
	whois := medmaker.NewRecordWrapper("whois", medmaker.NewRecordStore())
	cs := medmaker.NewRelationalWrapper("cs", medmaker.NewRelationalDB())
	med, err := medmaker.New(medmaker.Config{Name: "med", Spec: specMS1, Sources: []medmaker.Source{whois, cs}})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		inner, dec medmaker.Source
	}{
		{whois, &timedSource{inner: whois, tr: tr}},
		{cs, &timedSource{inner: cs, tr: tr}},
		{med, &timedMediator{inner: med, tr: tr}},
	}
	for _, p := range pairs {
		if got, want := optional(p.dec), optional(p.inner); got != want {
			t.Errorf("%s: decorator implements %v, source %v", p.inner.Name(), got, want)
		}
	}
}

// TestTracedRunMatchesUntraced: the traced pass's answers, exchange and
// matview delta counts equal the untraced pass's, and its layer times
// reconcile.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, full := range workloads {
		w := small(full)
		res, err := runTraced(runConfig{w: w, seed: 3, window: 400 * time.Millisecond})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: traced run correct=%v failed=%d", w.name, res.Correct, res.Failed)
		}
	}
}

func TestCover(t *testing.T) {
	iv := []interval{{srcWhois, 0, 10}, {srcCS, 5, 15}, {srcCS, 20, 30}}
	got, by := cover(iv)
	if got != 25 || by[srcWhois] != 10 || by[srcCS] != 20 {
		t.Fatalf("cover = %v %v", got, by)
	}
}
