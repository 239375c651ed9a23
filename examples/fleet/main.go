// Fleet: run a resident worker fleet inside one process — the backend
// hydra-serve uses in "-backend fleet" mode. One Fleet accepts TCP
// workers and stays up across jobs; analyses routed
// through Options.Backend are farmed out in s-point batches to whoever
// is connected, and a worker that joins mid-run is handed work
// immediately.
//
// In production the same roles are played by hydra-serve and K
// hydra-worker processes on separate machines.
//
// Run with:
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"
	"net"

	"hydra"
)

func main() {
	model, err := hydra.VotingSystem(0)
	if err != nil {
		log.Fatal(err)
	}
	p2 := model.PlaceIndex("p2")
	cc := model.StateMarking(0)[model.PlaceIndex("p1")]
	targets := model.States(func(m hydra.Marking) bool { return m[p2] >= cc })
	sources := []int{model.InitialState()}

	// The fleet is resident: it outlives every job below.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fleet := hydra.NewFleet(ln, hydra.FleetOptions{BatchSize: 8})
	defer fleet.Close()
	fmt.Printf("fleet: accepting workers on %s (model %s)\n", fleet.Addr(), model.Fingerprint())

	// Two workers join before any work exists. Each holds its own copy
	// of the model, exactly like a separate hydra-worker process would;
	// the handshake advertises the model fingerprint the fleet routes by.
	workerDone := make(chan error, 3)
	startWorker := func(name string) {
		wm, err := hydra.VotingSystem(0)
		if err != nil {
			log.Fatal(err)
		}
		go func() { workerDone <- wm.RunWorker(ln.Addr().String(), name, nil) }()
	}
	startWorker("worker-0")
	startWorker("worker-1")

	opts := &hydra.Options{Backend: fleet}

	// Job 1: a passage density over the fleet.
	r1, err := model.PassageDensity(sources, targets, []float64{15, 20, 25, 30, 40}, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("density:  %d points over %d workers in %v\n",
		r1.Stats.Evaluated, r1.Stats.Workers, r1.Stats.WallTime)

	// A third worker joins mid-life; the next job spreads over all
	// three. The same connections serve this job too — no redial.
	startWorker("worker-2")
	t90, err := model.PassageQuantile(sources, targets, 0.9, 25, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quantile: t90 = %.4f\n", t90)

	fmt.Println("\n      t      f(t)")
	for i := range r1.Times {
		fmt.Printf("  %5.1f  %9.6f\n", r1.Times[i], r1.Values[i])
	}

	// Closing the fleet dismisses every worker cleanly (nil error).
	fleet.Close()
	for i := 0; i < 3; i++ {
		if err := <-workerDone; err != nil {
			log.Fatalf("worker: %v", err)
		}
	}
	fmt.Println("fleet closed, all workers dismissed")
}
