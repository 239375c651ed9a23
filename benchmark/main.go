// Command benchmark is hydra's benchmark: seven named workloads, the
// end-to-end metrics a user sees and the per-layer metrics that explain
// them, one command. See README.md beside this file.
//
//	bash benchmark/run.sh -seed 1 -out DIR            every workload, untraced
//	bash benchmark/run.sh -seed 1 -out DIR -trace 1   ... then the traced pass
//	bash benchmark/run.sh -workload contour-2k -seed 1 -seconds 8 -trace 0
//	bash benchmark/run.sh -compare A/result.json B/result.json
//	bash benchmark/run.sh -selfcheck -out DIR
//
// With -workload it runs that one workload in this process and ends its
// standard output with the contract's result line. Without, it is the
// driver: it re-executes itself once per workload, so peak memory and
// garbage-collector state are per workload.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the timed budget of
// one run. A workload repeats until another repetition would end past
// 1.25× this; one whose repetition is longer runs it once.
const defaultSeconds = 8

var workloads = []workloadDef{
	{"solve-106k", "Voting system 1 (106,540 states), one density t-point = 33 Euler s-points, one worker: the memory-bound Eq. (10) sweep (~19 MB per sweep, larger than L2); the plain single-threaded baseline.", newSolve106k},
	{"contour-2k", "Voting system 0 (2,061 states), density + CDF at 48 t and Laguerre density at 24 t, two workers: the same sweep cache-resident, so per-point fixed costs (LST sampling, fill, dispatch, inversion) show.", newContour2k},
	{"transient-2k", "Voting system 0, transient distribution over the 111 all-voted states at one t-point: block multi-RHS Gauss-Seidel, ~60x a passage point; a sweep change that helps the iterative route can hurt it.", newTransient2k},
	{"load-250k", "Generated DNAmaca text of voting (100,30,4) -> LoadSpec -> steady state -> moments -> source weights, exactly 249,760 states: front-end-bound, no transform inversion, largest live heap.", newLoad250k},
	{"farm-8k", "Voting (30,10,3), density at 8 t = 264 s-points farmed to 2 loopback fleet workers with a master checkpoint file: the paper's own scheme, where batching, wire framing and checkpoint appends show.", newFarm8k},
	{"shard-106k", "The solve-106k request on a 2-worker loopback fleet with Options.Shard 2: measured sharded wall at workers <= num_cpu, where halo exchange, plan quality and multi-sweep batching do the work.", newShard106k},
	{"serve-mix-2k", "In-process server behind httptest, system 0 with its surface prewarmed; closed loop, 2 clients, 6,000 seeded requests: 85% resident quantile hits, 10% result-cache CDF, 5% never-repeated cold density.", newServeMix2k},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Env records where the numbers were taken.
type Env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Contract   string `json:"error_contract"`
}

func environment() Env {
	return Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Contract: fmt.Sprintf("vectors vs direct solve %.0e relative; distributed vs in-process curve %.0e absolute; moments and quantiles %.0e relative; HTTP vs library %.0e relative; chain residual %.0e",
			vectorRelTol, curveAbsTol, momentRelTol, serveRelTol, residualTol),
	}
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// Harness rule: one generator process, never more than two busy
	// threads.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in-process and end with the contract's result line (default: drive every workload)")
	seed := fs.Int64("seed", 1, "seed of the generated requests")
	seconds := fs.Float64("seconds", defaultSeconds, "timed budget of one run, in seconds")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics (the driver runs both)")
	out := fs.String("out", "", "directory for result.json and trace-<workload>.json")
	runs := fs.Int("runs", 1, "driver: runs per workload, on consecutive seeds, for medians and spreads")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	selfcheck := fs.Bool("selfcheck", false, "run two sets of the same code and compare them")
	contract := fs.String("contract", "BENCHMARK.json", "the contract file -compare takes bounds from")
	printContract := fs.Bool("print-contract", false, "print BENCHMARK.json as the code defines it")
	tiny := fs.Bool("tiny", false, "toy model sizes (the smoke test's): same code paths, numbers mean nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *printContract:
		stdout.Write(contractJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare A.json B.json")
			return 2
		}
		return compareFiles(stdout, stderr, *contract, fs.Arg(0), fs.Arg(1))
	case *workload != "":
		def, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
			return 2
		}
		return runOne(def, *seed, *seconds, *trace != 0, *tiny, *out, stdout, stderr)
	}

	d := driver{seed: *seed, seconds: *seconds, traced: *trace != 0, tiny: *tiny, runs: *runs, stdout: stdout, stderr: stderr}
	if *selfcheck {
		if *out == "" {
			fmt.Fprintln(stderr, "-selfcheck needs -out DIR")
			return 2
		}
		d.runs = max(d.runs, 3)
		a, b := filepath.Join(*out, "a"), filepath.Join(*out, "b")
		if code := d.drive(a); code != 0 {
			return code
		}
		if code := d.drive(b); code != 0 {
			return code
		}
		return compareFiles(stdout, stderr, *contract, filepath.Join(a, "result.json"), filepath.Join(b, "result.json"))
	}
	return d.drive(*out)
}

// runOne is the contract's entry point: one workload, one pass, the
// metrics by name and unit, then the result line.
func runOne(def workloadDef, seed int64, seconds float64, traced, tiny bool, out string, stdout, stderr io.Writer) int {
	r := &Run{Seed: seed, Seconds: seconds, Tiny: tiny}
	defs := endToEnd
	if traced {
		r.Trace, r.Layer, defs = NewTracer(), make(map[string]float64), perLayer
	}
	t0 := time.Now()
	d, err := execute(def, r)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", def.Name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s seed %d traced %v: %d repetitions, %d set-ups, %d latency samples, %.1f s in all\n",
		def.Name, seed, traced, d.Reps, d.Setups, d.Samples, time.Since(t0).Seconds())
	printMetrics(stdout, d.Result, defs)
	for i, f := range d.Failures {
		if i == 8 {
			fmt.Fprintf(stdout, "  ... and %d more failures\n", len(d.Failures)-i)
			break
		}
		fmt.Fprintf(stdout, "  FAILED %s\n", f)
	}
	if traced {
		spans := r.Trace.Spans()
		if self, wall := SelfByName(spans, 1), repWall(spans); wall > 0 {
			var sum int64
			for _, ns := range self {
				sum += ns
			}
			fmt.Fprintf(stdout, "  traced repetition %.3f s, layer self times sum to %.3f s\n", float64(wall)/1e9, float64(sum)/1e9)
		}
		if out != "" {
			if err := WriteTrace(out, def.Name, spans); err != nil {
				fmt.Fprintf(stderr, "%s: writing trace: %v\n", def.Name, err)
				return 1
			}
		}
	}
	fmt.Fprintf(stdout, "  failed_frac %d/%d\n", d.Result.Failed, d.Result.Attempted)
	fmt.Fprintln(stdout, resultLine(d.Result))
	if !d.Result.Correct {
		return 1
	}
	return 0
}

// repWall is the duration of the traced repetition's root span.
func repWall(spans []Span) int64 {
	for _, s := range spans {
		if s.Name == "rep" && s.RunID == 1 {
			return s.EndNS - s.StartNS
		}
	}
	return 0
}

// ResultFile is what the driver writes to DIR/result.json.
type ResultFile struct {
	Env     Env       `json:"env"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Runs    []FileRun `json:"runs"`
}

// FileRun is one child's result.
type FileRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Result   Result `json:"result"`
}

type driver struct {
	seed           int64
	seconds        float64
	traced, tiny   bool
	runs           int
	stdout, stderr io.Writer
}

// drive runs every workload in a child process each — the untraced
// pass, then (with -trace 1) the traced pass — prints every metric, and
// writes result.json. It returns non-zero when any check failed.
func (d driver) drive(out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(d.stderr, err)
		return 1
	}
	file := ResultFile{Env: environment(), Seed: d.seed, Seconds: d.seconds}
	fmt.Fprintf(d.stdout, "hydra benchmark: %d CPUs, GOMAXPROCS %d, %s, %s\nerror contract: %s\n",
		file.Env.NumCPU, file.Env.GOMAXPROCS, file.Env.GoVersion, file.Env.CPUModel, file.Env.Contract)
	passes := []bool{false}
	if d.traced {
		passes = append(passes, true)
	}
	failed := false
	for _, traced := range passes {
		for _, def := range workloads {
			n := d.runs
			if traced {
				n = 1
			}
			for k := 0; k < n; k++ {
				seed := d.seed + int64(k)
				res, err := d.child(self, def.Name, seed, traced, out)
				if err != nil {
					fmt.Fprintf(d.stderr, "%s: %v\n", def.Name, err)
					failed = true
					continue
				}
				failed = failed || !res.Correct
				file.Runs = append(file.Runs, FileRun{def.Name, seed, traced, res})
			}
		}
	}
	if out != "" {
		buf, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.MkdirAll(out, 0o755)
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(out, "result.json"), append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(d.stderr, err)
			return 1
		}
	}
	if failed {
		fmt.Fprintln(d.stdout, "FAILED: failed_frac > 0 on some workload")
		return 1
	}
	return 0
}

// child runs one workload in a fresh process, echoes its output, and
// parses the result line it ends with.
func (d driver) child(self, name string, seed int64, traced bool, out string) (Result, error) {
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(d.seconds), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if d.tiny {
		args = append(args, "-tiny")
	}
	if out != "" {
		args = append(args, "-out", out)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = d.stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return Result{}, err
	}
	if err := cmd.Start(); err != nil {
		return Result{}, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(d.stdout, last)
		}
		last = sc.Text()
	}
	waitErr := cmd.Wait()
	var res Result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if last != "" {
			fmt.Fprintln(d.stdout, last)
		}
		if waitErr != nil {
			return Result{}, waitErr
		}
		return Result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
