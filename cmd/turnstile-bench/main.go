// Command turnstile-bench regenerates the tables and figures of the
// paper's evaluation (§6) from the built-in corpus and substrates:
//
//	turnstile-bench -table2              Table 2 (framework popularity)
//	turnstile-bench -figure10            Figure 10 + analysis timing (E1)
//	turnstile-bench -figure11            Figure 11 (overhead vs input rate, E2)
//	turnstile-bench -figure12            Figure 12 (per-app overhead at 30/250 Hz)
//	turnstile-bench -all                 everything
//
// E2 flags: -messages N (default 200), -warmup N, -repeats N, -apps a,b,c.
//
// Chaos mode: -chaos replays the runnable corpus under deterministic
// fault injection and asserts sink-trace equivalence between the
// original and instrumented versions on the failure paths. -faultseed N
// selects the fault schedule (same seed → byte-identical report);
// -faultschedule FILE replaces the generated per-app schedules with a
// fixed JSON schedule.
//
// Crash mode: -crash runs the adversarial crash corpus (unbounded loops,
// recursion, allocation blow-ups, timer storms, parser-depth abuse) under
// tight guard budgets with the tracker in fail-closed enforcement mode,
// and exits non-zero unless every app terminates with its expected typed
// error. The report is byte-identical at any -parallel level. Combine
// with -faultschedule to compose fault injection with the crash corpus
// (outcome kinds may legitimately shift under faults, so the expected-kind
// gate is skipped; determinism still holds).
//
// Scheduling flags: -parallel N fans the per-app analyses (E1) and
// preparation+measurement (E2) across N workers (default: one per CPU;
// 1 restores the paper's sequential methodology).
//
// Observability flags: -metrics replays each runnable app's selective and
// exhaustive versions with the telemetry layer attached and emits the
// per-app overhead-breakdown tables attributing instrumented cost to
// individual DIFT ops (count-based and byte-identical across runs and
// -parallel counts). -trace DIR additionally writes each app's
// selective-version structured trace JSON (virtual-clock timestamps).
// -profile FILE writes a pprof CPU profile of the whole run.
//
// Execution-mode flags: -novm runs every interpreter on the tree-walking
// evaluator instead of the bytecode VM (the differential oracle). -bench
// runs the slot-env vs map-walk interpreter microbenchmarks, where the
// map walk is the tree-walker on an unresolved parse (-benchrepeats
// best-of repeats), and -benchout FILE writes the report JSON (the
// committed BENCH_*.json artifacts).
//
// Generated-corpus mode: -gen N generates and scores N seeded stratified
// apps (-genseed S selects the population; same (N, seed) → byte-identical
// report at any -parallel level) against their built-in
// must-catch/must-allow ground truth and renders a per-stratum
// precision/recall table, exiting non-zero on any missed flow or false
// positive. -servegen N appends generated tenants to the serve soak fleet.
//
// Serve mode: -serve runs the multi-tenant daemon soak — -servetenants
// well-behaved corpus tenants (plus the hostile crash+attack tenant
// unless -servehostile=false) driven through -servemessages arrivals each
// on the virtual clock — and prints the per-tenant table with sustained
// msg/s, p50/p99 latency and shed/denied/violation counts. -serveseed N
// selects the arrival traces; the report and the -serveout FILE JSON
// artifact (the committed BENCH_serve.json) are byte-identical for a
// fixed seed at any -parallel level.
//
// Recovery mode: -recovery runs the crash-recovery battery: a seeded fleet
// is run durably (labeled WAL + snapshots on an in-memory store), killed
// after every WAL record boundary (-recoverystride / -recoverymax coarsen
// the sweep), recovered on the surviving bytes and resumed at worker
// counts 1 and 8 — the resumed account must be byte-identical to the
// uninterrupted run. A corrupted-WAL scenario rides along and must come
// back poisoned with sinks denied, surviving a second restart. Exits
// non-zero on any mismatch. Sized by -servetenants/-servemessages/
// -serveseed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"turnstile/internal/corpus"
	"turnstile/internal/faults"
	"turnstile/internal/harness"
	"turnstile/internal/telemetry"
	"turnstile/internal/workload"
)

func main() {
	table2 := flag.Bool("table2", false, "regenerate Table 2")
	fig10 := flag.Bool("figure10", false, "regenerate Figure 10 (E1)")
	fig11 := flag.Bool("figure11", false, "regenerate Figure 11 (E2)")
	fig12 := flag.Bool("figure12", false, "regenerate Figure 12 (E2)")
	all := flag.Bool("all", false, "run everything")
	chaos := flag.Bool("chaos", false, "replay the corpus under fault injection and check equivalence")
	crash := flag.Bool("crash", false, "run the adversarial crash corpus under tight guard budgets")
	attack := flag.Bool("attack", false, "run the adversarial attack corpus and score precision/recall against ground truth")
	gen := flag.Int("gen", 0, "generate and score N seeded corpus apps against their built-in ground truth")
	genSeed := flag.Uint64("genseed", 1, "corpus seed for -gen (same (N, seed) → byte-identical report)")
	faultSeed := flag.Int64("faultseed", 1, "seed for generated fault schedules (chaos mode)")
	faultSchedule := flag.String("faultschedule", "", "JSON fault schedule file overriding the generated ones")
	messages := flag.Int("messages", 200, "messages per E2 run (paper: 1000)")
	warmup := flag.Int("warmup", 20, "warmup messages per E2 run")
	repeats := flag.Int("repeats", 1, "repeated E2 runs to average (paper: 10)")
	appsFilter := flag.String("apps", "", "comma-separated app names for E2 (default: all 27)")
	outDir := flag.String("out", "", "also write compiled results (JSON/CSV) into this directory")
	parallel := flag.Int("parallel", harness.DefaultParallelism(), "experiment worker count (1 = sequential)")
	metrics := flag.Bool("metrics", false, "emit the per-app DIFT overhead-breakdown tables")
	traceDir := flag.String("trace", "", "write per-app selective-version trace JSON into this directory (implies -metrics)")
	profileOut := flag.String("profile", "", "write a pprof CPU profile of the whole run to this file")
	noVM := flag.Bool("novm", false, "run interpreters on the tree-walking evaluator with the bytecode VM disabled (differential oracle)")
	bench := flag.Bool("bench", false, "run the slot-env vs map-walk interpreter microbenchmarks")
	benchOut := flag.String("benchout", "", "also write the microbenchmark report JSON to this file (e.g. BENCH_baseline.json)")
	benchRepeats := flag.Int("benchrepeats", 5, "best-of repeats per microbenchmark mode")
	benchVM := flag.Bool("benchvm", false, "run the bytecode-VM vs tree-walker interpreter microbenchmarks")
	benchVMOut := flag.String("benchvmout", "", "also write the VM microbenchmark report JSON to this file (e.g. BENCH_vm.json)")
	serveSoak := flag.Bool("serve", false, "run the multi-tenant serve-daemon soak")
	serveTenants := flag.Int("servetenants", 4, "well-behaved tenant count for the soak")
	serveMessages := flag.Int("servemessages", 60, "messages per tenant for the soak")
	serveSeed := flag.Int64("serveseed", 1, "arrival-trace seed for the soak")
	serveHostile := flag.Bool("servehostile", true, "include the hostile crash+attack tenant in the soak")
	serveGen := flag.Int("servegen", 0, "append N seeded-generator tenants to the soak fleet")
	serveOut := flag.String("serveout", "", "also write the soak report JSON to this file (e.g. BENCH_serve.json)")
	recovery := flag.Bool("recovery", false, "run the crash-recovery battery (kill at WAL boundaries, byte-identical resume)")
	recoveryStride := flag.Int("recoverystride", 1, "test every stride-th WAL record boundary (recovery mode)")
	recoveryMax := flag.Int("recoverymax", 0, "cap the number of crash boundaries tested (0 = all)")
	flag.Parse()

	if *profileOut != "" {
		f, err := os.Create(*profileOut)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("cpu profile written to %s\n", *profileOut)
		}()
	}

	if *traceDir != "" {
		*metrics = true
	}
	if *all {
		*table2, *fig10, *fig11, *fig12, *chaos, *crash, *attack, *metrics = true, true, true, true, true, true, true, true
	}
	if !*table2 && !*fig10 && !*fig11 && !*fig12 && !*chaos && !*crash && !*attack && !*metrics && !*bench && !*benchVM && !*serveSoak && !*recovery && *gen == 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *recovery {
		res, err := harness.RunRecoveryBattery(harness.RecoveryOptions{
			Tenants: *serveTenants, Messages: *serveMessages, Seed: *serveSeed,
			BoundaryStride: *recoveryStride, MaxBoundaries: *recoveryMax,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.RenderRecovery(res))
		if !res.Passed() {
			fatal(fmt.Errorf("recovery battery: %d mismatch(es); fail-closed contract held: %v",
				len(res.Mismatches), res.Corruption == nil || res.Corruption.Ok()))
		}
	}

	if *serveSoak {
		res, err := harness.RunServeSoak(harness.ServeSoakOptions{
			Tenants: *serveTenants, Messages: *serveMessages, Seed: *serveSeed,
			Hostile: *serveHostile, GenTenants: *serveGen, GenSeed: *genSeed, Parallel: *parallel,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.RenderServeSoak(res))
		if *serveOut != "" {
			data, err := harness.ExportServeSoakJSON(res)
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*serveOut, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *serveOut)
		}
	}

	if *bench {
		rep, err := harness.RunMicrobench(*benchRepeats)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.RenderMicrobench(rep))
		if *benchOut != "" {
			data, err := harness.ExportMicrobenchJSON(rep)
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *benchOut)
		}
	}

	if *benchVM {
		rep, err := harness.RunVMMicrobench(*benchRepeats)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.RenderVMMicrobench(rep))
		if *benchVMOut != "" {
			data, err := harness.ExportVMMicrobenchJSON(rep)
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*benchVMOut, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *benchVMOut)
		}
	}

	apps := corpus.All()

	if *table2 {
		fmt.Println(harness.RenderTable2(harness.RunTable2()))
	}

	if *fig10 {
		res, err := harness.RunE1(apps, *parallel)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.RenderE1(res))
		if *outDir != "" {
			writeOut(*outDir, "taint-analysis-compiled.csv", []byte(harness.ExportFigure10CSV(res)))
		}
	}

	if *fig11 || *fig12 {
		targets := corpus.Runnable(apps)
		if *appsFilter != "" {
			targets = filterRunnable(apps, *appsFilter)
		}
		opts := harness.E2Options{Messages: *messages, Warmup: *warmup, Repeats: *repeats,
			Parallel: *parallel, NoVM: *noVM}
		fmt.Printf("measuring %d app(s) × 3 versions × %d messages on %d worker(s)...\n",
			len(targets), opts.Messages, *parallel)
		ms, err := harness.MeasureApps(targets, opts)
		if err != nil {
			fatal(err)
		}
		for i := range ms {
			m := &ms[i]
			fmt.Printf("  %-18s orig %8v  sel %8v  exh %8v (total service time)\n",
				m.App, m.Original.Total().Round(100), m.Selective.Total().Round(100), m.Exhaustive.Total().Round(100))
		}
		points := harness.Figure11(ms, workload.Rates)
		if *fig11 {
			fmt.Println()
			fmt.Println(harness.RenderFigure11(points))
		}
		if *fig12 {
			fmt.Println()
			fmt.Println(harness.RenderFigure12(harness.Figure12(ms)))
		}
		if *outDir != "" {
			if data, err := harness.ExportJSON(ms, workload.Rates); err == nil {
				writeOut(*outDir, "exp-results-compiled.json", data)
			}
			writeOut(*outDir, "plot-area-data.csv", []byte(harness.ExportAreaCSV(points)))
			writeOut(*outDir, "plot-bar-data.csv", []byte(harness.ExportBarCSV(harness.Figure12(ms))))
		}
		s := harness.Summarize(ms, points)
		fmt.Printf("\nheadline numbers (paper → measured):\n")
		fmt.Printf("  worst-case overhead at 30 Hz: selective 15.8%% → %.1f%%, exhaustive 153.8%% → %.1f%%\n",
			100*(s.WorstSelective30-1), 100*(s.WorstExhaustive30-1))
		fmt.Printf("  selective median overhead: 0.2%% at 2 Hz → %.1f%%, 22.0%% at 1000 Hz → %.1f%%\n",
			100*(s.MedianSelLow-1), 100*(s.MedianSelHigh-1))
		fmt.Printf("  apps with acceptable median overhead: selective %d, exhaustive %d (paper: 22 vs 16)\n",
			s.AcceptableSel, s.AcceptableExh)
	}

	if *metrics {
		targets := apps
		if *appsFilter != "" {
			targets = filterRunnable(apps, *appsFilter)
		}
		traceCap := 0
		if *traceDir != "" {
			traceCap = telemetry.DefaultTraceCapacity
		}
		res, err := harness.RunBreakdown(targets, harness.BreakdownOptions{
			Messages: *messages, Parallel: *parallel, TraceCapacity: traceCap, NoVM: *noVM,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.RenderBreakdown(res))
		if *traceDir != "" {
			for i := range res.Rows {
				if res.Rows[i].SelectiveTrace != nil {
					writeOut(*traceDir, res.Rows[i].App+"-trace.json", res.Rows[i].SelectiveTrace)
				}
			}
		}
		if *outDir != "" {
			writeOut(*outDir, "overhead-breakdown.txt", []byte(harness.RenderBreakdown(res)))
		}
	}

	if *chaos {
		var schedule *faults.Schedule
		if *faultSchedule != "" {
			data, err := os.ReadFile(*faultSchedule)
			if err != nil {
				fatal(err)
			}
			if schedule, err = faults.ParseSchedule(data); err != nil {
				fatal(err)
			}
		}
		targets := apps
		if *appsFilter != "" {
			targets = filterRunnable(apps, *appsFilter)
		}
		res, err := harness.RunChaos(targets, harness.ChaosOptions{
			Seed: *faultSeed, Messages: *messages, Parallel: *parallel,
			Schedule: schedule, NoVM: *noVM,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.RenderChaos(res))
		if *outDir != "" {
			writeOut(*outDir, "chaos-report.txt", []byte(harness.RenderChaos(res)))
		}
		if res.Equivalent != len(res.Apps) {
			fatal(fmt.Errorf("chaos: %d app(s) diverged under faults", len(res.Apps)-res.Equivalent))
		}
	}

	if *crash {
		var schedule *faults.Schedule
		if *faultSchedule != "" {
			data, err := os.ReadFile(*faultSchedule)
			if err != nil {
				fatal(err)
			}
			if schedule, err = faults.ParseSchedule(data); err != nil {
				fatal(err)
			}
		}
		res, err := harness.RunCrashCorpus(harness.CrashOptions{Parallel: *parallel, Schedule: schedule, NoVM: *noVM})
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.RenderCrash(res))
		if *outDir != "" {
			writeOut(*outDir, "crash-report.txt", []byte(harness.RenderCrash(res)))
		}
		if schedule == nil && res.Passed != len(res.Apps) {
			fatal(fmt.Errorf("crash corpus: %d app(s) escaped typed termination", len(res.Apps)-res.Passed))
		}
	}

	if *attack {
		res, err := harness.RunAttackCorpus(harness.AttackOptions{Parallel: *parallel, NoVM: *noVM})
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.RenderAttack(res))
		if *outDir != "" {
			writeOut(*outDir, "attack-report.txt", []byte(harness.RenderAttack(res)))
		}
		if res.FN > 0 {
			fatal(fmt.Errorf("attack corpus: %d must-catch flow(s) escaped the tracker", res.FN))
		}
		if res.Passed != len(res.Apps) {
			fatal(fmt.Errorf("attack corpus: %d app(s) failed (errors or false positives)", len(res.Apps)-res.Passed))
		}
	}

	if *gen > 0 {
		res, err := harness.RunGenCorpus(harness.GenOptions{
			N: *gen, Seed: *genSeed, Parallel: *parallel, NoVM: *noVM,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.RenderGen(res))
		if *outDir != "" {
			writeOut(*outDir, "gen-report.txt", []byte(harness.RenderGen(res)))
		}
		if res.FN > 0 {
			fatal(fmt.Errorf("generated corpus: %d must-catch flow(s) escaped the tracker", res.FN))
		}
		if res.Passed != len(res.Apps) {
			fatal(fmt.Errorf("generated corpus: %d app(s) failed (errors or false positives)", len(res.Apps)-res.Passed))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "turnstile-bench:", err)
	os.Exit(1)
}

// filterRunnable resolves a comma-separated -apps list against the
// runnable corpus, fataling on unknown names.
func filterRunnable(apps []*corpus.App, filter string) []*corpus.App {
	runnable := corpus.Runnable(apps)
	var filtered []*corpus.App
	for _, name := range strings.Split(filter, ",") {
		a := corpus.ByName(runnable, strings.TrimSpace(name))
		if a == nil {
			fatal(fmt.Errorf("unknown runnable app %q", name))
		}
		filtered = append(filtered, a)
	}
	return filtered
}

// writeOut writes one compiled artifact, creating the directory if needed.
func writeOut(dir, name string, data []byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}
