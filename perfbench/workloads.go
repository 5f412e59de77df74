package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

type opKind int

const (
	opMSL    opKind = iota // an MSL query read
	opLorel                // a LOREL select read
	opInsert               // a new person: whois Add, then cs Insert
)

// op is one operation of a workload's stream with its expected answer.
type op struct {
	kind opKind
	text string   // query text (reads)
	want []string // sorted canonical answer objects (reads)
	ryw  bool     // the read that follows an insert, for its person
	p    *person  // opInsert
}

// workload is one named traffic mix, sent by one closed-loop client.
// Rounds have a fixed composition, so every stretch of the stream carries
// the same mix of operation shapes whatever the seed.
type workload struct {
	name, why string
	persons   int  // loaded population
	remote    bool // queries reach the mediator through Serve + DialSource
	planCache int  // plan-cache capacity; 0 leaves the plan cache off
	answers   bool // answer cache on every source
	matview   bool // materialize cs_person
	hot       int  // lookup: size of the zipfian working set
	warmup    int  // untimed operations before each measured pass
	// episode, when set, is the length of a self-contained stretch of
	// operations replayed on a fresh system each time (the stream is that
	// one episode); see measure.
	episode int
	// round appends one round of operations to the stream.
	round func(g *stream) []op
}

var workloads = []*workload{
	{
		name:      "lookup",
		why:       "served zipfian point queries over the gob remote protocol; the whois full scan dominates and compile is a plan-cache hit",
		persons:   20000,
		remote:    true,
		planCache: 1024,
		hot:       128,
		warmup:    100,
		round:     lookupRound,
	},
	{
		name:    "adhoc",
		why:     "varied MSL and LOREL shapes over a tiny population with no caches; per-query parse, expand, plan and engine overhead dominate",
		persons: 40,
		warmup:  2000,
		round:   adhocRound,
	},
	{
		name:      "fullview",
		why:       "whole-view cs_person queries with hundreds of answers each; datamerge operators, bind-join batching and construction dominate",
		persons:   2000,
		planCache: 64,
		warmup:    20,
		round:     fullviewRound,
	},
	{
		name:      "churn",
		why:       "inserts beside matview-served point reads with read-your-writes checks; change feeds and delta maintenance dominate",
		persons:   2000,
		planCache: 1024,
		answers:   true,
		matview:   true,
		warmup:    200,
		episode:   200,
		round:     churnRound,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stream is a workload's seeded operation sequence, generated round by
// round on demand; op i is the same for every pass of a run.
type stream struct {
	w   *workload
	pop *population
	rng *rand.Rand
	hot []*person  // lookup's working set, in zipf rank order
	zf  *rand.Zipf // ranks into hot, s = 1.1

	mu    sync.Mutex
	ops   []op
	first int                 // length of the first round
	memo  map[string][]string // expected answers shared by many rounds
}

func newStream(w *workload, pop *population, seed int64) *stream {
	s := &stream{w: w, pop: pop, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	if w.hot > 0 {
		for _, i := range s.rng.Perm(len(pop.csIdx))[:w.hot] {
			s.hot = append(s.hot, pop.persons[pop.csIdx[i]])
		}
		s.zf = rand.NewZipf(s.rng, 1.1, 1, uint64(w.hot-1))
	}
	return s
}

// at returns operation i, generating rounds as needed. An episodic
// stream is its first episode, repeated.
func (s *stream) at(i int) op {
	if s.w.episode > 0 {
		i %= s.w.episode
	}
	s.ensure(i + 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops[i]
}

// ensure generates rounds until the stream holds at least n operations,
// so a measured pass does not pay for generation.
func (s *stream) ensure(n int) {
	if s.w.episode > 0 && n > s.w.episode {
		n = s.w.episode
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ops) < n {
		s.ops = append(s.ops, s.w.round(s)...)
		if s.first == 0 {
			s.first = len(s.ops)
		}
	}
}

// firstRound returns the operations of the stream's first round.
func (s *stream) firstRound() []op {
	s.ensure(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]op(nil), s.ops[:s.first]...)
}

// csWhere memoizes population.csWhere under key; only for populations
// that do not grow.
func (s *stream) csWhere(key string, keep func(*person) bool) []string {
	if s.memo == nil {
		s.memo = map[string][]string{}
	}
	if v, ok := s.memo[key]; ok {
		return v
	}
	v := s.pop.csWhere(keep)
	s.memo[key] = v
	return v
}

// randCS picks a CS person of the loaded population.
func (s *stream) randCS(keep func(*person) bool) *person {
	for {
		p := s.pop.persons[s.pop.csIdx[s.rng.Intn(len(s.pop.csIdx))]]
		if keep == nil || keep(p) {
			return p
		}
	}
}

func pointQuery(p *person) op {
	return op{kind: opMSL, text: fmt.Sprintf("Q :- Q:<cs_person {<name '%s'>}>@med.", p.name()), want: []string{p.viewObject()}}
}

// lookupRound: ten zipfian point queries over the working set.
func lookupRound(s *stream) []op {
	out := make([]op, 10)
	for i := range out {
		out[i] = pointQuery(s.hot[s.zf.Uint64()])
	}
	return out
}

// adhocRound: ten queries of six shapes, shuffled.
func adhocRound(s *stream) []op {
	pop := s.pop
	isEmp := func(p *person) bool { return p.employee }
	var out []op
	// MS1 point queries.
	out = append(out, pointQuery(s.randCS(nil)), pointQuery(s.randCS(nil)))
	// A relation condition.
	rel := []string{"employee", "student"}[s.rng.Intn(2)]
	out = append(out, op{kind: opMSL,
		text: fmt.Sprintf("Q :- Q:<cs_person {<name N> <relation '%s'>}>@med.", rel),
		want: pop.csWhere(func(p *person) bool { return p.relation() == rel })})
	// A title condition (pushed into the cs rest).
	title := titles[s.rng.Intn(len(titles))]
	out = append(out, op{kind: opMSL,
		text: fmt.Sprintf("Q :- Q:<cs_person {<name N> <title '%s'>}>@med.", title),
		want: pop.csWhere(func(p *person) bool { return p.employee && p.title == title })})
	// Two-conjunct view joins: an employee and their manager's title.
	for i := 0; i < 2; i++ {
		e := s.randCS(isEmp)
		boss := pop.byName[e.reportsTo]
		out = append(out, op{kind: opMSL,
			text: fmt.Sprintf("<boss {<emp N> <title T>}> :- <cs_person {<name N> <reports_to M>}>@med AND <cs_person {<name M> <title T>}>@med AND eq(N, '%s').", e.name()),
			want: []string{setCanon("boss", []string{atomCanon("emp", e.name()), atomCanon("title", boss.title)})}})
	}
	// LOREL selects: a whole object by name, a projection under a
	// title condition, a comparison on year.
	p := s.randCS(nil)
	out = append(out, op{kind: opLorel,
		text: fmt.Sprintf(`select X from med.cs_person X where X.name = "%s"`, p.name()),
		want: []string{p.viewObject()}})
	title = titles[s.rng.Intn(len(titles))]
	var rows []string
	for _, i := range pop.csIdx {
		if q := pop.persons[i]; q.employee && q.title == title {
			rows = append(rows, setCanon("row", []string{atomCanon("name", q.name()), atomCanon("relation", q.relation())}))
		}
	}
	sort.Strings(rows)
	out = append(out, op{kind: opLorel,
		text: fmt.Sprintf(`select X.name, X.relation from med.cs_person X where X.title = "%s"`, title),
		want: rows})
	for i := 0; i < 2; i++ {
		year := 1 + s.rng.Intn(5)
		rows = nil
		for _, j := range pop.csIdx {
			if q := pop.persons[j]; !q.employee && q.year >= year {
				rows = append(rows, setCanon("row", []string{atomCanon("name", q.name())}))
			}
		}
		sort.Strings(rows)
		out = append(out, op{kind: opLorel,
			text: fmt.Sprintf(`select X.name from med.cs_person X where X.year >= %d`, year),
			want: rows})
	}
	s.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fullviewRound: the four non-selective cs_person queries, shuffled.
func fullviewRound(s *stream) []op {
	all := s.csWhere("all", func(*person) bool { return true })
	emp := s.csWhere("employee", func(p *person) bool { return p.employee })
	stu := s.csWhere("student", func(p *person) bool { return !p.employee })
	out := []op{
		{kind: opMSL, text: "P :- P:<cs_person {<name N>}>@med.", want: all},
		{kind: opMSL, text: "P :- P:<cs_person {<name N> <relation R>}>@med.", want: all},
		{kind: opMSL, text: "P :- P:<cs_person {<name N> <relation 'employee'>}>@med.", want: emp},
		{kind: opMSL, text: "P :- P:<cs_person {<name N> <relation 'student'>}>@med.", want: stu},
	}
	s.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// churnRound: one insert of a new CS person and the read of that person,
// then eight point reads of loaded persons.
func churnRound(s *stream) []op {
	p := s.pop.nextCS()
	read := pointQuery(p)
	read.ryw = true
	out := []op{{kind: opInsert, p: p}, read}
	for i := 0; i < 8; i++ {
		out = append(out, pointQuery(s.randCS(nil)))
	}
	return out
}
