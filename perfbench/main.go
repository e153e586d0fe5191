// Command perfbench is the benchmark of the tmbp STM and of the paper's
// simulators. It runs one workload per invocation, for a fixed time, on
// inputs drawn from a seed before the clock starts, checks every output
// against models of its own, and prints one JSON result as the last line of
// standard output:
//
//	perfbench --workload kv-point --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// half of the time untraced (counts, allocations, the untraced latency) and
// half with spans recorded around every call into a layer, and reports the
// per-layer metrics. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// config is what one run is asked to do.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// short shrinks every workload's structures and batch sizes so the
	// benchmark's own tests can run each workload in a fraction of a
	// second; metrics from a short run are not comparable to a full one.
	short bool
	// spans is the file a traced run writes its spans to ("" writes none).
	spans string
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(cfg config) (*result, error)
}

var workloads = []workload{
	{"kv-point", runKVPoint},
	{"scan-mix", runScanMix},
	{"paper-sims", runPaperSims},
}

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: kv-point, scan-mix or paper-sims")
	seed := fs.Uint64("seed", 1, "seed all inputs are drawn from")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds %v must be positive\n", *seconds)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d must be 0 or 1\n", *traceFlag)
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want kv-point, scan-mix or paper-sims)\n", *name)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	if cfg.trace {
		cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", wl.name, cfg.seed))
	}
	res, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	printResult(stdout, wl.name, res)
	return 0
}

// printResult writes one "name value unit" line per metric, then the JSON
// result as the last line.
func printResult(w io.Writer, name string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "workload %s: %d operations attempted, %d failed\n", name, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		// Only a NaN or an infinity can make Marshal fail here: report it
		// rather than print a result the caller would misread.
		panic(fmt.Sprintf("perfbench: result does not encode: %v", err))
	}
	fmt.Fprintln(w, strings.TrimSpace(string(line)))
}

// failures counts checked operations and the ones whose outputs were wrong,
// keeping the first few messages for the error log.
type failures struct {
	attempted, failed int64
	msgs              []string
}

// check counts one operation, failed when err is non-nil.
func (f *failures) check(err error) {
	f.attempted++
	if err == nil {
		return
	}
	f.failed++
	if len(f.msgs) < 8 {
		f.msgs = append(f.msgs, err.Error())
	}
}

func (f *failures) merge(g *failures) {
	f.attempted += g.attempted
	f.failed += g.failed
	for _, m := range g.msgs {
		if len(f.msgs) < 8 {
			f.msgs = append(f.msgs, m)
		}
	}
}

// fill copies the tallies into res and logs the first failures to stderr.
func (f *failures) fill(res *result) {
	res.Attempted, res.Failed = f.attempted, f.failed
	res.Correct = f.failed == 0
	for _, m := range f.msgs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", m)
	}
}
