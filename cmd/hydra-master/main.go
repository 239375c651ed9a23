// Command hydra-master runs the master side of the distributed analysis
// pipeline (§4): it computes the s-points the inverter demands, serves
// them to hydra-worker processes over TCP (a one-shot fleet — batched
// assignments, version- and fingerprint-checked handshake), checkpoints every returned value, and performs the final
// inversion when all values are in. Workers may join mid-run; a worker
// that dies has its in-flight batch requeued for the others.
//
// The master holds the model only to resolve the measure's source and
// target sets; the numerical work happens on the workers.
//
// Usage:
//
//	hydra-master -spec model.dnamaca -measure 1 -listen :9441 -checkpoint run.ckpt
//	hydra-worker -spec model.dnamaca -master host:9441   (on each worker node)
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"hydra"
)

func main() {
	var (
		specPath   = flag.String("spec", "", "extended-DNAmaca model specification file")
		votingSys  = flag.Int("voting", -1, "built-in voting system 0-5")
		measureIdx = flag.Int("measure", 1, "measure block to serve (1-based)")
		listen     = flag.String("listen", ":9441", "address to accept workers on")
		checkpoint = flag.String("checkpoint", "", "checkpoint file (resume-safe)")
		method     = flag.String("method", "", "override inversion method")
	)
	flag.Parse()

	model, err := loadModel(*specPath, *votingSys)
	if err != nil {
		fatal(err)
	}
	measures := model.Measures()
	if *measureIdx < 1 || *measureIdx > len(measures) {
		fatal(fmt.Errorf("measure %d requested but the model defines %d", *measureIdx, len(measures)))
	}
	ms := measures[*measureIdx-1]
	opts := &hydra.Options{Method: ms.Method}
	if *method != "" {
		opts.Method = *method
	}

	var job *hydra.Job
	switch ms.Kind {
	case hydra.Passage:
		job, err = model.NewPassageJob(ms.Name, ms.Sources, ms.Targets, ms.Times, false, opts)
	case hydra.Transient:
		job, err = model.NewTransientJob(ms.Name, ms.Sources, ms.Targets, ms.Times, opts)
	}
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "hydra-master: %d states, %d s-points, listening on %s\n",
		model.NumStates(), len(job.Points), ln.Addr())

	r, err := model.ServeMaster(ln, job, ms.Times, *checkpoint, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "hydra-master: %d evaluated, %d cached, %d workers, %v wall\n",
		r.Stats.Evaluated, r.Stats.FromCache, r.Stats.Workers, r.Stats.WallTime)
	fmt.Println("measure,t,value")
	for i := range r.Times {
		fmt.Printf("%s,%g,%g\n", ms.Name, r.Times[i], r.Values[i])
	}
}

func loadModel(specPath string, votingSys int) (*hydra.Model, error) {
	switch {
	case specPath != "" && votingSys >= 0:
		return nil, fmt.Errorf("use either -spec or -voting, not both")
	case specPath != "":
		return hydra.LoadSpecFile(specPath)
	case votingSys >= 0:
		return hydra.VotingSystem(votingSys)
	default:
		return nil, fmt.Errorf("a model is required: -spec file or -voting N")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hydra-master:", err)
	os.Exit(1)
}
