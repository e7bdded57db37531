// Command qcperf is the repository's benchmark. It drives the replicated
// store through one named workload for a fixed time, checks the workload's
// output, and prints one JSON result line as the last line of its standard
// output. Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones. See README.md for the workloads and the metrics.
//
//	qcperf --workload ycsb-b-tcp --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// params are one run's arguments.
type params struct {
	seed    int64
	seconds time.Duration
	trace   bool
	log     io.Writer
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int64
	checkErr          error
	values            map[string]float64
}

// workload is one named workload: how to run it, and the metrics it
// reports beyond the shared endToEnd and perLayer lists.
type workload struct {
	run          func(context.Context, params) (outcome, error)
	e2e, layered []spec
}

var workloads = map[string]workload{
	"ycsb-b-tcp":      {run: func(ctx context.Context, p params) (outcome, error) { return runTCP(ctx, p, newYCSB) }},
	"bank-nested-tcp": {run: func(ctx context.Context, p params) (outcome, error) { return runTCP(ctx, p, newBank) }},
	"chaos-sim":       {run: runChaos, e2e: chaosEndToEnd, layered: chaosLayer},
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("qcperf", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fl.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fl.Int("seconds", 10, "length of the timed window in seconds")
	trace := fl.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "qcperf: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	p := params{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, log: stderr}
	out, err := w.run(context.Background(), p)
	if err != nil {
		fmt.Fprintf(stderr, "qcperf: %s: %v\n", *name, err)
		return 1
	}
	if out.checkErr != nil {
		fmt.Fprintf(stderr, "qcperf: %s: check failed: %v\n", *name, out.checkErr)
	}
	list := append(append([]spec(nil), endToEnd...), w.e2e...)
	if p.trace {
		list = append(append([]spec(nil), perLayer...), w.layered...)
	}
	line, err := json.Marshal(result{
		Correct:   out.checkErr == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   report(list, out.values),
	})
	if err != nil {
		fmt.Fprintf(stderr, "qcperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
