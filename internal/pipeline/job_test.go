package pipeline

import (
	"math"
	"strings"
	"testing"
)

// referenceJob is a fully-populated job whose spec fingerprint is
// pinned by TestFingerprintGolden.
func referenceJob() *Job {
	return &Job{
		SolveSpec: SolveSpec{
			Name:     "voting-0:passage",
			Quantity: PassageCDF,
			Targets:  []int{5, 6},
			Points:   []complex128{complex(0.5, 0), complex(0.5, 1.25), complex(0.5, -1.25)},
		},
		Sources: []int{0, 3},
		Weights: []float64{0.75, 0.25},
	}
}

// TestFingerprintGolden pins the fingerprint bytes. The fingerprint is a
// persistent cache key: checkpoint files and server result caches are
// keyed by it, so any change to the hash input layout silently orphans
// every existing cached result. If this test fails, either revert the
// change to Fingerprint or accept that all caches are invalidated and
// update the golden values deliberately. (The vector engine did exactly
// that once, on purpose: spec fingerprints carry a "specv1" tag so the
// scalar era's source-inclusive keys can never collide with them.)
func TestFingerprintGolden(t *testing.T) {
	if got, want := referenceJob().Fingerprint(), "70ea1f95bf87432b600c39d55572cc48"; got != want {
		t.Errorf("reference fingerprint = %s, want %s (cache keys changed!)", got, want)
	}
	if got, want := (&SolveSpec{}).Fingerprint(), "d4b2e0201429a3c704c4a1338c749c29"; got != want {
		t.Errorf("empty-spec fingerprint = %s, want %s (cache keys changed!)", got, want)
	}
}

// TestFingerprintGoldenShapes pins the fingerprint of the shapes the
// hash layout must keep byte-identical beyond the reference job: an
// empty name, a transient spec, and a contour-sized spec. The values
// were computed by the per-field binary.Write implementation.
func TestFingerprintGoldenShapes(t *testing.T) {
	want := []string{
		"3fb5260eccd17658433eec1f744d798f",
		"20e659903ca606e22311f70406578722",
		"cd3ff23760c41405cd6aaf84e3568c97",
	}
	for i, sp := range goldenSpecs() {
		if got := sp.Fingerprint(); got != want[i] {
			t.Errorf("spec %d (%q, %d targets, %d points): fingerprint %s, want %s (cache keys changed!)",
				i, sp.Name, len(sp.Targets), len(sp.Points), got, want[i])
		}
	}
}

// TestFingerprintSensitivity checks every spec field participates in
// the key, that no two distinct specs in the set collide — and that the
// source weighting deliberately does NOT participate: requests that
// differ only in sources must share one cache entry and one in-flight
// solve.
func TestFingerprintSensitivity(t *testing.T) {
	mutations := map[string]func(*Job){
		"name":     func(j *Job) { j.Name = "voting-1:passage" },
		"quantity": func(j *Job) { j.Quantity = PassageDensity },
		"targets":  func(j *Job) { j.Targets = []int{5} },
		"points":   func(j *Job) { j.Points[2] = complex(0.5, -1.5) },
	}
	seen := map[string]string{referenceJob().Fingerprint(): "reference"}
	for field, mutate := range mutations {
		j := referenceJob()
		mutate(j)
		fp := j.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutating %s collides with %s (fingerprint %s)", field, prev, fp)
		}
		seen[fp] = field
	}

	// Sources and weights are read-time data: mutating them must keep
	// the fingerprint — this is the property the whole vector engine's
	// cache reuse rests on.
	ref := referenceJob().Fingerprint()
	j := referenceJob()
	j.Sources = []int{1}
	j.Weights = []float64{1}
	if got := j.Fingerprint(); got != ref {
		t.Errorf("changing sources changed the spec fingerprint %s -> %s; per-source traffic would stop sharing solves", ref, got)
	}

	// TraceID is correlation metadata, like ModelFP: two requests that
	// trigger the identical solve must coalesce and share the cache
	// entry no matter which request IDs they carry.
	j = referenceJob()
	j.TraceID = "req-00112233aabbccdd"
	if got := j.Fingerprint(); got != ref {
		t.Errorf("setting TraceID changed the spec fingerprint %s -> %s; traced requests would stop sharing solves", ref, got)
	}

	// ShardHint and SegmentHint are scheduling metadata: the sharded
	// solve provably computes the same vectors as the monolithic one, so
	// sharded and unsharded runs must share cache entries and
	// checkpoints — a reshard after a checkpoint restore depends on it.
	j = referenceJob()
	j.ShardHint = 4
	j.SegmentHint = 16
	if got := j.Fingerprint(); got != ref {
		t.Errorf("setting ShardHint/SegmentHint changed the spec fingerprint %s -> %s; sharded runs would stop sharing checkpoints", ref, got)
	}
}

func TestValidate(t *testing.T) {
	valid := func() *Job {
		return &Job{
			SolveSpec: SolveSpec{
				Name:    "ok",
				Targets: []int{2},
				Points:  []complex128{1 + 1i},
			},
			Sources: []int{0, 1},
			Weights: []float64{0.5, 0.5},
		}
	}
	cases := []struct {
		name    string
		mutate  func(*Job)
		wantErr string // empty = valid
	}{
		{"valid", func(*Job) {}, ""},
		{"empty sources", func(j *Job) { j.Sources = nil; j.Weights = nil }, "sources/weights"},
		{"mismatched weights", func(j *Job) { j.Weights = []float64{1} }, "sources/weights"},
		{"source below range", func(j *Job) { j.Sources[0] = -1 }, "source -1 outside"},
		{"source above range", func(j *Job) { j.Sources[1] = 3 }, "source 3 outside"},
		{"NaN weight", func(j *Job) { j.Weights[0] = math.NaN() }, "non-finite weight"},
		{"Inf weight", func(j *Job) { j.Weights[1] = math.Inf(1) }, "non-finite weight"},
		{"negative weight", func(j *Job) { j.Weights[0] = -0.5 }, "negative weight"},
		{"all-zero weights", func(j *Job) { j.Weights[0] = 0; j.Weights[1] = 0 }, "all zero"},
		{"empty targets", func(j *Job) { j.Targets = nil }, "empty target"},
		{"target below range", func(j *Job) { j.Targets[0] = -2 }, "target -2 outside"},
		{"target above range", func(j *Job) { j.Targets[0] = 99 }, "target 99 outside"},
		{"no points", func(j *Job) { j.Points = nil }, "no s-points"},
	}
	const modelStates = 3
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j := valid()
			c.mutate(j)
			err := j.Validate(modelStates)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted an invalid job, want error containing %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Validate() = %q, want it to contain %q", err, c.wantErr)
			}
		})
	}
}

// TestSpecValidate covers the source-free unit on its own: specs are
// what backends execute and caches key, so they validate independently
// of any weighting.
func TestSpecValidate(t *testing.T) {
	valid := SolveSpec{Name: "ok", Targets: []int{2}, Points: []complex128{1 + 1i}}
	if err := valid.Validate(3); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := valid
	bad.Targets = []int{3}
	if bad.Validate(3) == nil {
		t.Error("out-of-range target accepted")
	}
	bad = valid
	bad.Targets = nil
	if bad.Validate(3) == nil {
		t.Error("empty target set accepted")
	}
	bad = valid
	bad.Points = nil
	if bad.Validate(3) == nil {
		t.Error("empty point set accepted")
	}
}

// TestReadPoint pins the read-time reduction: a weighted dot product
// over the source-indexed vector, tolerant of short vectors.
func TestReadPoint(t *testing.T) {
	j := &Job{Sources: []int{0, 2}, Weights: []float64{0.25, 0.75}}
	vec := []complex128{4, 99, 2i}
	if got, want := j.ReadPoint(vec), complex(1, 1.5); got != want {
		t.Errorf("ReadPoint = %v, want %v", got, want)
	}
	vecs := [][]complex128{vec, {8, 0, 4i}}
	got := j.ReadVectors(vecs)
	if len(got) != 2 || got[0] != complex(1, 1.5) || got[1] != complex(2, 3) {
		t.Errorf("ReadVectors = %v", got)
	}
}

// goldenSpecs are the specs TestFingerprintGoldenShapes pins: an empty
// name, a transient spec, and a contour-sized spec of 24 Euler
// contours (792 points) over 111 targets.
func goldenSpecs() []*SolveSpec {
	big := &SolveSpec{Name: "voting-0:density", Quantity: PassageDensity}
	for k := 0; k < 111; k++ {
		big.Targets = append(big.Targets, 1950+k)
	}
	for k := 0; k < 792; k++ {
		big.Points = append(big.Points, complex(0.25+float64(k/33)/7, 0.19*float64(k%33)-1/3.0))
	}
	return []*SolveSpec{
		{Quantity: PassageCDF, Targets: []int{7}, Points: []complex128{complex(1.5, -0.25)}},
		{Name: "voting-0:transient", Quantity: TransientDist, Targets: []int{3, 1, 4},
			Points: []complex128{complex(0.125, 0), complex(0.125, math.Pi), complex(0.125, -math.Pi)}},
		big,
	}
}
