package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"medmaker"
)

// The oracle compares answers field by field through a canonical text
// form that ignores object-ids and subobject order:
//
//	label='string'   label=42   label{sub1,sub2,...}   (subs sorted)

func atomCanon(label, v string) string { return label + "=" + quote(v) }

func intCanon(label string, v int) string { return label + "=" + strconv.Itoa(v) }

func setCanon(label string, subs []string) string {
	sorted := append([]string(nil), subs...)
	sort.Strings(sorted)
	return label + "{" + strings.Join(sorted, ",") + "}"
}

// quote renders a string atom the way medmaker.Value.String does.
func quote(s string) string { return "'" + strings.ReplaceAll(s, "'", `\'`) + "'" }

// canon renders one answer object.
func canon(o *medmaker.Object) string {
	if o.IsAtomic() {
		return o.Label + "=" + o.Value.String()
	}
	subs := o.Subobjects()
	parts := make([]string, len(subs))
	for i, s := range subs {
		parts[i] = canon(s)
	}
	return setCanon(o.Label, parts)
}

// canonAll renders an answer as its sorted canonical objects.
func canonAll(objs []*medmaker.Object) []string {
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = canon(o)
	}
	sort.Strings(out)
	return out
}

// checkAnswer compares an answer with the expected canonical objects
// (sorted) and returns the answer's canonical form. An empty expectation
// is itself an error: every read of every workload is generated to have a
// non-empty answer.
func checkAnswer(got []*medmaker.Object, want []string) ([]string, error) {
	if len(want) == 0 {
		return nil, fmt.Errorf("oracle: empty expected answer")
	}
	if len(got) == 0 {
		return nil, fmt.Errorf("oracle: empty answer, want %d objects", len(want))
	}
	g := canonAll(got)
	if len(g) != len(want) {
		return g, fmt.Errorf("oracle: %d answer objects, want %d", len(g), len(want))
	}
	for i := range g {
		if g[i] != want[i] {
			return g, fmt.Errorf("oracle: answer object %d is %s, want %s", i, g[i], want[i])
		}
	}
	return g, nil
}
