package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"medmaker"
)

// specMS1 is the mediator specification MS1 of the MedMaker paper: CS
// people from the irregular whois directory joined with their rows of the
// relational cs database through the decomp name decomposition.
const specMS1 = `
<cs_person {<name N> <relation R> Rest1 Rest2}> :-
    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
    AND <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN).

decomp(bound, free, free) by name_to_lnfn.
decomp(free, bound, bound) by lnfn_to_name.
`

var (
	depts  = []string{"CS", "EE", "ME", "PHYS"}
	titles = []string{"professor", "lecturer", "staff", "postdoc"}
	extras = []string{"birthday", "office", "homepage", "phone"}
)

// person is one generated individual, present in both sources. Every
// structural property (department, relation, which optional fields are
// present, title, year, manager) is a function of the person's index, so
// two seeds give populations of identical shape; the seed only picks the
// names and the order records are loaded in.
type person struct {
	idx         int
	first, last string
	dept        string
	employee    bool
	email       string // "" when the whois record lacks e_mail
	extraLabel  string // "" when the record carries no optional field
	extraValue  string
	title       string // employees
	reportsTo   string // employees: full name of index idx-8 (or idx+8)
	year        int    // students
}

func (p *person) name() string { return p.first + " " + p.last }

func (p *person) relation() string {
	if p.employee {
		return "employee"
	}
	return "student"
}

// cs reports whether the person belongs to the cs_person view.
func (p *person) cs() bool { return p.dept == "CS" }

// record is the person's whois entry.
func (p *person) record() medmaker.Record {
	fields := []medmaker.RecordField{
		{Name: "name", Value: p.name()},
		{Name: "dept", Value: p.dept},
		{Name: "relation", Value: p.relation()},
	}
	if p.email != "" {
		fields = append(fields, medmaker.RecordField{Name: "e_mail", Value: p.email})
	}
	if p.extraLabel != "" {
		fields = append(fields, medmaker.RecordField{Name: p.extraLabel, Value: p.extraValue})
	}
	return medmaker.Record{Kind: "person", Fields: fields}
}

// viewObject is the canonical form (see canon) of the person's cs_person
// object: name and relation, the rest of the whois record (Rest1) and the
// rest of the cs row (Rest2).
func (p *person) viewObject() string {
	subs := []string{
		atomCanon("name", p.name()),
		atomCanon("relation", p.relation()),
	}
	if p.email != "" {
		subs = append(subs, atomCanon("e_mail", p.email))
	}
	if p.extraLabel != "" {
		subs = append(subs, atomCanon(p.extraLabel, p.extraValue))
	}
	if p.employee {
		subs = append(subs, atomCanon("title", p.title), atomCanon("reports_to", p.reportsTo))
	} else {
		subs = append(subs, intCanon("year", p.year))
	}
	return setCanon("cs_person", subs)
}

// population is a generated cs/whois extent plus the names the workloads
// draw from.
type population struct {
	persons []*person // by index
	byName  map[string]*person
	csIdx   []int // indexes of the CS persons
	rng     *rand.Rand
	used    map[string]bool // every name handed out, for uniqueness
}

// genPopulation builds n persons from seed.
func genPopulation(n int, seed int64) *population {
	pop := &population{
		byName: make(map[string]*person, n),
		rng:    rand.New(rand.NewSource(seed)),
		used:   make(map[string]bool, n),
	}
	for i := 0; i < n; i++ {
		pop.add()
	}
	return pop
}

// word returns a random lower-case word of length n.
func word(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

// add appends the next person by index. The manager of person i is person
// i-8 (or i+8 for the first eight): same department and relation, so every
// CS employee reports to another CS employee.
func (pop *population) add() *person {
	i := len(pop.persons)
	p := &person{idx: i}
	for {
		p.first = "F" + word(pop.rng, 5)
		p.last = "L" + word(pop.rng, 7)
		if !pop.used[p.name()] {
			break
		}
	}
	pop.used[p.name()] = true
	p.dept = depts[i%len(depts)]
	p.employee = (i/len(depts))%2 == 0
	if i%10 != 3 {
		p.email = strings.ToLower(p.first) + "@" + strings.ToLower(p.dept)
	}
	if i%7 == 1 {
		p.extraLabel = extras[(i/7)%len(extras)]
		p.extraValue = fmt.Sprintf("%s-%d", p.extraLabel, i)
	}
	p.title = titles[(i/8)%len(titles)]
	p.year = 1 + (i/8)%5
	pop.persons = append(pop.persons, p)
	pop.byName[p.name()] = p
	if p.cs() {
		pop.csIdx = append(pop.csIdx, i)
	}
	return p
}

// managerName resolves reports_to once every person exists: index i-8,
// or i+8 for the first eight.
func (pop *population) managerName(i int) string {
	j := i - 8
	if j < 0 {
		j = i + 8
	}
	return pop.persons[j].name()
}

// fillManagers sets reports_to for every employee.
func (pop *population) fillManagers() {
	for _, p := range pop.persons {
		if p.employee && p.reportsTo == "" {
			p.reportsTo = pop.managerName(p.idx)
		}
	}
}

// nextCS generates a new CS person beyond the loaded population (churn's
// inserts): indexes advance to the next multiple of len(depts), so the
// structural rules above still apply.
func (pop *population) nextCS() *person {
	for {
		p := pop.add()
		if p.cs() {
			if p.employee {
				p.reportsTo = pop.managerName(p.idx)
			}
			return p
		}
		// Non-CS fillers are generated but never inserted into the
		// sources; drop them from the lookup maps.
		delete(pop.byName, p.name())
	}
}

// sourceInputs is what setup loads: whois records and cs CSV text, in a
// seeded order.
type sourceInputs struct {
	records  []medmaker.Record
	employee string // CSV: first_name,last_name,title,reports_to
	student  string // CSV: first_name,last_name,year
}

// inputs renders the population as source load inputs, shuffled by the
// population's generator.
func (pop *population) inputs() sourceInputs {
	pop.fillManagers()
	order := pop.rng.Perm(len(pop.persons))
	var in sourceInputs
	var emp, stu bytes.Buffer
	emp.WriteString("first_name,last_name,title,reports_to\n")
	stu.WriteString("first_name,last_name,year\n")
	for _, i := range order {
		p := pop.persons[i]
		in.records = append(in.records, p.record())
		if p.employee {
			fmt.Fprintf(&emp, "%s,%s,%s,%s\n", p.first, p.last, p.title, p.reportsTo)
		} else {
			fmt.Fprintf(&stu, "%s,%s,%d\n", p.first, p.last, p.year)
		}
	}
	in.employee, in.student = emp.String(), stu.String()
	return in
}

// csWhere returns the canonical view objects of the CS persons satisfying
// keep, sorted.
func (pop *population) csWhere(keep func(*person) bool) []string {
	var out []string
	for _, i := range pop.csIdx {
		if p := pop.persons[i]; keep(p) {
			out = append(out, p.viewObject())
		}
	}
	sort.Strings(out)
	return out
}
