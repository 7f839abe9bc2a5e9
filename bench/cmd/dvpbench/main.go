// Command dvpbench is the one benchmark of this repository: six
// workloads against three real dvpnode processes on loopback, each
// with end-to-end metrics, per-layer metrics and a correctness gate.
//
//	dvpbench -seed 1                          every workload, full report
//	dvpbench -seed 1 -workload local_cpu      one workload
//	dvpbench -seed 1 -out a.json              append this run to a result file
//	dvpbench -compare a.json b.json           set b against baseline a
//
// See ../../README.md for what each number means.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"dvp/bench/harness"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "seed of the command generator: same seed, same commands")
		workload = flag.String("workload", "", "run only this workload (default: all six)")
		seconds  = flag.Int("seconds", harness.ContractSeconds, "measured window in seconds; counted phases scale with it")
		trace    = flag.Int("trace", 1, "1: also run the in-process traced run and the layer probes; 0: end-to-end metrics only")
		out      = flag.String("out", "", "append this run's results to this JSON file and keep node logs and spans beside it")
		compare  = flag.Bool("compare", false, "compare two result files: dvpbench -compare A.json B.json")
		contract = flag.Bool("contract", false, "print BENCHMARK.json as the metric catalog defines it, and exit")
		nodeBin  = flag.String("node", "", "dvpnode binary to test (default: build ./cmd/dvpnode of the enclosing repository)")
		workDir  = flag.String("work", "", "directory for WALs, node logs and build output (default: .bench_build in the repository)")
	)
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	if *contract {
		spec, err := harness.BenchmarkSpec()
		if err != nil {
			fatalf("%v", err)
		}
		os.Stdout.Write(spec)
		return
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	var todo []harness.Workload
	if *workload == "" {
		todo = harness.Workloads
	} else if w, ok := harness.WorkloadByName(*workload); ok {
		todo = []harness.Workload{w}
	} else {
		fatalf("unknown workload %q", *workload)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workDir == "" || *nodeBin == "" {
		root, err := repoRoot()
		if err != nil {
			fatalf("%v", err)
		}
		if *workDir == "" {
			*workDir = filepath.Join(root, ".bench_build")
		}
		if *nodeBin == "" {
			*nodeBin = filepath.Join(*workDir, "bin", "dvpnode")
			build := exec.CommandContext(ctx, "go", "build", "-o", *nodeBin, "./cmd/dvpnode")
			build.Dir = root
			build.Stderr = os.Stderr
			if err := build.Run(); err != nil {
				fatalf("build dvpnode: %v", err)
			}
		}
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	fp, err := harness.TakeFingerprint(*workDir)
	if err != nil {
		fatalf("fingerprint: %v", err)
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s kernel=%s wal-fs=%s fsync=%.0fµs sleep(200µs)+%.0fµs\n",
		fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.Kernel, fp.FSType, fp.FsyncUs, fp.SleepOvershootUs)
	if warn := fp.Warning(); warn != "" {
		fmt.Println(warn)
		fmt.Fprintln(os.Stderr, warn)
	}

	opts := harness.Options{
		NodeBin: *nodeBin, WorkDir: *workDir, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}
	if *out != "" {
		opts.LogDir = strings.TrimSuffix(*out, ".json") + ".logs"
	}
	run := harness.Run{Fingerprint: fp}
	correct := true
	var last string
	for _, w := range todo {
		res, err := harness.RunWorkload(ctx, opts, w)
		if err != nil {
			fatalf("%v", err)
		}
		res.Print(os.Stdout)
		run.Workloads = append(run.Workloads, res)
		correct = correct && res.Correct
		if last, err = res.ContractLine(opts.Trace); err != nil {
			fatalf("%v", err)
		}
	}
	if *out != "" {
		if err := harness.AppendRun(*out, run); err != nil {
			fatalf("%v", err)
		}
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "dvpbench: correctness gate failed (see VIOLATION lines)")
		os.Exit(1)
	}
	// Last line of output: the machine-readable result of the last
	// workload run, as the benchmark contract reads it.
	fmt.Println(last)
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fatalf("usage: dvpbench -compare A.json B.json")
	}
	a, err := harness.LoadResults(args[0])
	if err != nil {
		fatalf("%v", err)
	}
	b, err := harness.LoadResults(args[1])
	if err != nil {
		fatalf("%v", err)
	}
	rows, err := harness.Compare(a, b)
	if err != nil {
		fatalf("%v", err)
	}
	if bad := harness.PrintCompare(os.Stdout, rows); bad > 0 {
		fmt.Printf("%d of %d comparisons are not ok\n", bad, len(rows))
		return 1
	}
	return 0
}

// repoRoot walks up from the working directory to the directory whose
// go.mod declares module dvp.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(data), "\n"); strings.TrimSpace(first) == "module dvp" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no enclosing repository (a go.mod declaring module dvp) above the working directory; pass -node and -work")
		}
		dir = parent
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dvpbench: "+format+"\n", args...)
	os.Exit(2)
}
