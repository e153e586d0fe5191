package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"tmbp/internal/load"
	"tmbp/internal/opacity"
	"tmbp/internal/report"
	"tmbp/internal/stm"
	"tmbp/tmds"
)

// runLoad executes the open-loop service benchmark: a seeded load
// generator drives the tmds structures through the STM at a configured
// arrival rate and reports throughput plus p50/p99/p999 open-loop latency
// per structure × contention-management policy (see internal/load). With
// -virtual the run is a discrete-event simulation on a virtual clock and
// the emitted rows are byte-identical across machines for the same seed —
// that mode is what the CI gate diffs against the checked-in
// BENCH_load.json. Without it, real worker goroutines race real arrivals
// on the wall clock.
func runLoad(fs *flag.FlagSet, args []string) error {
	jsonOut := fs.Bool("json", false, "emit JSON instead of an aligned table")
	virtual := fs.Bool("virtual", false, "deterministic discrete-event run on a virtual clock (byte-reproducible per seed)")
	structName := fs.String("struct", "all", "structure under load: hashmap | list | queue | skiplist | all")
	table := fs.String("table", "tagged", "ownership table: tagless | tagged | sharded")
	cm := fs.String("cm", "all", "contention policy: backoff | adaptive | timestamp | switching | all")
	arrival := fs.String("arrival", "poisson", "arrival process: fixed | poisson")
	rate := fs.Float64("rate", 2e6, "mean arrivals per second")
	workers := fs.Int("workers", 4, "servers: goroutines (wall clock) or simulated servers (-virtual)")
	ops := fs.Int("ops", 20000, "transactions per scenario")
	keys := fs.Int("keys", 1024, "key-space size")
	zipfS := fs.Float64("zipf", 0.9, "Zipf key-popularity exponent (0 = uniform)")
	readFrac := fs.Float64("read-frac", 0.75, "fraction of operations that observe rather than mutate (0 selects the default)")
	meanOps := fs.Float64("mean-ops", 4, "mean operations per transaction (geometric, >= 1)")
	serviceNs := fs.Int64("service-ns", 250, "simulated per-operation service time for -virtual")
	seed := fs.Uint64("seed", 1, "root random seed")
	bits := fs.Int("bits", 7, "histogram precision in sub-bucket bits (relative error 2^-bits)")
	entries := fs.Uint64("entries", 4096, "ownership table entries (power of two)")
	scanFrac := fs.Float64("scan-frac", 0.25, "fraction of operations that range-scan in the skiplist scan sweep")
	scanSpan := fs.Int("scan-span", 64, "inclusive key width of each range scan in the skiplist scan sweep")
	record := fs.String("record", "", "directory to write one opacity trace per scenario (verify with 'tmbp check')")
	if err := fs.Parse(args); err != nil {
		return err
	}

	structs := tmds.Kinds()
	if *structName != "all" {
		structs = []string{*structName}
	}
	cms := stm.CMKinds()
	if *cm != "all" {
		cms = []string{*cm}
	}

	var rows []load.Row
	for _, st := range structs {
		for _, policy := range cms {
			sc := load.Scenario{
				Struct:       st,
				Table:        *table,
				CM:           policy,
				Arrival:      *arrival,
				RatePerSec:   *rate,
				Workers:      *workers,
				Ops:          *ops,
				Keys:         *keys,
				ZipfS:        *zipfS,
				ReadFrac:     *readFrac,
				MeanOps:      *meanOps,
				ServiceNs:    *serviceNs,
				Virtual:      *virtual,
				Seed:         *seed,
				Bits:         *bits,
				TableEntries: *entries,
			}
			var trace *opacity.Log
			if *record != "" {
				trace = opacity.NewLog()
				sc.Recorder = trace
			}
			res, err := load.Run(sc)
			if err != nil {
				return err
			}
			rows = append(rows, res.Row)
			if trace != nil {
				name := fmt.Sprintf("load_%s_%s_%s.trace", st, *table, policy)
				if err := dumpTrace(trace, *record, name); err != nil {
					return err
				}
			}
		}
	}
	// Read-mostly companion sweep: the same scenario at 90% reads, with and
	// without the invisible-reader fast path, over the hashmap (the structure
	// whose transactions most often stay read-only). The pair of rows is the
	// service-level counterpart of the serial-ro-* bench rows: same seed and
	// plan within the pair — ReadFrac and Invisible don't perturb the arrival
	// stream — so the latency columns isolate the read protocol.
	for _, policy := range cms {
		for _, invisible := range []bool{false, true} {
			sc := load.Scenario{
				Struct:       "hashmap",
				Table:        *table,
				CM:           policy,
				Arrival:      *arrival,
				RatePerSec:   *rate,
				Workers:      *workers,
				Ops:          *ops,
				Keys:         *keys,
				ZipfS:        *zipfS,
				ReadFrac:     0.9,
				Invisible:    invisible,
				MeanOps:      *meanOps,
				ServiceNs:    *serviceNs,
				Virtual:      *virtual,
				Seed:         *seed,
				Bits:         *bits,
				TableEntries: *entries,
			}
			var trace *opacity.Log
			if *record != "" {
				trace = opacity.NewLog()
				sc.Recorder = trace
			}
			res, err := load.Run(sc)
			if err != nil {
				return err
			}
			rows = append(rows, res.Row)
			if trace != nil {
				mode := "acq"
				if invisible {
					mode = "inv"
				}
				name := fmt.Sprintf("load_ro_hashmap_%s_%s_%s.trace", *table, policy, mode)
				if err := dumpTrace(trace, *record, name); err != nil {
					return err
				}
			}
		}
	}

	// Scan-heavy companion sweep: the skiplist with a quarter of operations
	// replaced by range scans, with and without invisible readers. A scan
	// reads every level-0 node in its span inside one transaction, so these
	// rows surface the footprint-vs-conflict trade the point sweeps cannot:
	// scans widen the window for false conflicts under block aliasing, and
	// the invisible rows show how much of that a non-acquiring read protocol
	// buys back.
	for _, policy := range cms {
		for _, invisible := range []bool{false, true} {
			sc := load.Scenario{
				Struct:       "skiplist",
				Table:        *table,
				CM:           policy,
				Arrival:      *arrival,
				RatePerSec:   *rate,
				Workers:      *workers,
				Ops:          *ops,
				Keys:         *keys,
				ZipfS:        *zipfS,
				ReadFrac:     *readFrac,
				ScanFrac:     *scanFrac,
				ScanSpan:     *scanSpan,
				Invisible:    invisible,
				MeanOps:      *meanOps,
				ServiceNs:    *serviceNs,
				Virtual:      *virtual,
				Seed:         *seed,
				Bits:         *bits,
				TableEntries: *entries,
			}
			var trace *opacity.Log
			if *record != "" {
				trace = opacity.NewLog()
				sc.Recorder = trace
			}
			res, err := load.Run(sc)
			if err != nil {
				return err
			}
			rows = append(rows, res.Row)
			if trace != nil {
				mode := "acq"
				if invisible {
					mode = "inv"
				}
				name := fmt.Sprintf("load_scan_skiplist_%s_%s_%s.trace", *table, policy, mode)
				if err := dumpTrace(trace, *record, name); err != nil {
					return err
				}
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(loadReport{
			Schema:     1,
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Rows:       rows,
		})
	}
	t := report.New("Open-loop load benchmark",
		"struct", "cm", "reads", "tput tx/s", "p50 ns", "p99 ns", "p999 ns", "max ns", "abort rate")
	for _, r := range rows {
		reads := fmt.Sprintf("%.0f%%", r.ReadFrac*100)
		if r.ScanFrac > 0 {
			reads += fmt.Sprintf(" s%.0f%%", r.ScanFrac*100)
		}
		if r.Invisible {
			reads += " inv"
		}
		t.Add(r.Struct, r.CM, reads,
			report.F1(r.ThroughputTPS),
			fmt.Sprintf("%d", r.P50Ns),
			fmt.Sprintf("%d", r.P99Ns),
			fmt.Sprintf("%d", r.P999Ns),
			fmt.Sprintf("%d", r.MaxNs),
			report.Pct(r.AbortRate))
	}
	mode := "wall clock"
	if *virtual {
		mode = "virtual clock (deterministic)"
	}
	t.Note("open loop: latency is completion minus scheduled arrival (%s arrivals at %.0f/s, %d workers, %s table, seed %d, %s)",
		*arrival, *rate, *workers, *table, *seed, mode)
	t.Note("quantiles from per-worker log-bucketed histograms (relative error <= 2^-%d), merged after the run", *bits)
	t.Note("90%% rows: read-mostly hashmap companion sweep; 'inv' commits read-only transactions by version validation (invisible readers) instead of acquiring ownership")
	t.Note("s%% rows: skiplist scan sweep — that fraction of operations range-scan %d keys in one transaction, a multi-hundred-word footprint per scan", *scanSpan)
	return t.Render(os.Stdout)
}

// loadReport is the JSON envelope of one load run.
type loadReport struct {
	Schema     int        `json:"schema"`
	GoVersion  string     `json:"go"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Rows       []load.Row `json:"rows"`
}

// dumpTrace writes one recorded trace into dir.
func dumpTrace(trace *opacity.Log, dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := trace.Dump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
