// Command perfbench is MedMaker's layered benchmark. It runs one named
// workload against a mediator built only through the public medmaker API,
// checks every answer against an oracle computed when the inputs are
// generated, and prints one JSON result line last:
//
//	perfbench --workload lookup --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it runs the same operations untraced and then traced and
// reports the per-layer breakdown along the MSI pipeline (parse, expand,
// plan, datamerge execution, source exchanges, wire). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: lookup, adhoc, fullview or churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload lookup|adhoc|fullview|churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	printEnv(w, *seed, *seconds, *traced)
	cfg := runConfig{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second}
	var res result
	if *traced == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// printEnv writes the environment block as one JSON line.
func printEnv(w *workload, seed int64, seconds, traced int) {
	env := map[string]any{
		"workload":   w.name,
		"why":        w.why,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
	}
	out, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(out))
}
