package harness

import (
	"math"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
)

func TestFitConstantRecoversPlantedModel(t *testing.T) {
	s := &Series{Name: "planted"}
	const c = 3.5e-9
	for _, nu := range []int{8, 10, 12} {
		s.Samples = append(s.Samples, Sample{Nu: nu, Seconds: c * ModelN2(nu)})
	}
	got, err := FitConstant(s, ModelN2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-c)/c > 1e-12 {
		t.Errorf("fitted c = %g, want %g", got, c)
	}
}

func TestExtendByModel(t *testing.T) {
	s := &Series{Name: "x"}
	const c = 2e-9
	for _, nu := range []int{8, 10} {
		s.Samples = append(s.Samples, Sample{Nu: nu, Seconds: c * ModelN2(nu)})
	}
	if err := ExtendByModel(s, ModelN2, []int{8, 10, 14, 20}); err != nil {
		t.Fatal(err)
	}
	smp, ok := s.At(20)
	if !ok || !smp.Extrapolated {
		t.Fatal("missing extrapolated sample at ν=20")
	}
	want := c * ModelN2(20)
	if math.Abs(smp.Seconds-want)/want > 1e-9 {
		t.Errorf("extrapolated %g, want %g", smp.Seconds, want)
	}
	// Measured points must not be overwritten.
	if smp8, _ := s.At(8); smp8.Extrapolated {
		t.Error("measured sample marked extrapolated")
	}
}

func TestFitConstantNoSamples(t *testing.T) {
	s := &Series{Name: "empty"}
	if _, err := FitConstant(s, ModelN2); err == nil {
		t.Error("empty series must fail to fit")
	}
	s.Samples = append(s.Samples, Sample{Nu: 5, Seconds: 1, Extrapolated: true})
	if _, err := FitConstant(s, ModelN2); err == nil {
		t.Error("extrapolated-only series must fail to fit")
	}
}

func TestModelsGrowCorrectly(t *testing.T) {
	// N² model quadruples per +1 of ν.
	if r := ModelN2(11) / ModelN2(10); math.Abs(r-4) > 1e-12 {
		t.Errorf("N² ratio %g", r)
	}
	// Neighborhood model with dmax=ν equals N·(Σ all C) = N·2^ν = N².
	m := ModelNNeighborhood(10)
	if math.Abs(m(10)-ModelN2(10)) > 1e-6*ModelN2(10) {
		t.Errorf("neighborhood(ν) = %g, want N² = %g", m(10), ModelN2(10))
	}
}

func TestSpeedupsTable(t *testing.T) {
	ref := &Series{Name: "ref", Samples: []Sample{{Nu: 10, Seconds: 8}, {Nu: 12, Seconds: 64}}}
	fast := &Series{Name: "fast", Samples: []Sample{{Nu: 10, Seconds: 2}, {Nu: 12, Seconds: 4}}}
	missing := &Series{Name: "partial", Samples: []Sample{{Nu: 10, Seconds: 1}}}
	tab := Speedups(ref, []*Series{fast, missing})
	if tab.Speedup[0][0] != 4 || tab.Speedup[1][0] != 16 {
		t.Errorf("speedups %v", tab.Speedup)
	}
	if !math.IsNaN(tab.Speedup[1][1]) {
		t.Error("missing point must be NaN")
	}
	var sb strings.Builder
	if err := tab.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fast") || !strings.Contains(sb.String(), "16") {
		t.Errorf("TSV output:\n%s", sb.String())
	}
}

func TestWriteSeriesTSV(t *testing.T) {
	a := &Series{Name: "a", Samples: []Sample{{Nu: 5, Seconds: 0.5}, {Nu: 6, Seconds: 1, Extrapolated: true}}}
	b := &Series{Name: "b", Samples: []Sample{{Nu: 5, Seconds: 0.25}}}
	var sb strings.Builder
	if err := WriteSeriesTSV(&sb, []*Series{a, b}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "1*") {
		t.Errorf("extrapolated marker missing:\n%s", out)
	}
	if !strings.Contains(out, "\t-") {
		t.Errorf("missing-point marker absent:\n%s", out)
	}
}

func TestThresholdSweepSinglePeak(t *testing.T) {
	l, err := landscape.NewSinglePeak(20, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts, _, err := ThresholdSweepOpts(l, []float64{0.005, 0.08}, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || len(pts[0].Gamma) != 21 {
		t.Fatalf("unexpected sweep shape")
	}
	if pts[0].Gamma[0] < 0.5 {
		t.Errorf("ordered regime [Γ0] = %g", pts[0].Gamma[0])
	}
	if pts[1].Gamma[0] > 1e-3 {
		t.Errorf("random regime [Γ0] = %g", pts[1].Gamma[0])
	}
}

func TestThresholdSweepRejectsUnstructured(t *testing.T) {
	l, _ := landscape.NewRandom(8, 5, 1, 1)
	if _, _, err := ThresholdSweepOpts(l, []float64{0.01}, SweepOptions{Workers: 1}); err == nil {
		t.Error("unstructured landscape must be rejected")
	}
}

func TestThresholdSweepFullMatchesReduced(t *testing.T) {
	const nu = 8
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps := []float64{0.01, 0.05}
	reduced, _, err := ThresholdSweepOpts(l, ps, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.01)
	fullSerial, _, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fullDev, _, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: 1, dev: device.New(4, device.WithGrain(16))})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		for k := 0; k <= nu; k++ {
			if math.Abs(reduced[i].Gamma[k]-fullSerial[i].Gamma[k]) > 1e-7 {
				t.Errorf("p=%g class %d: reduced %g vs full %g",
					ps[i], k, reduced[i].Gamma[k], fullSerial[i].Gamma[k])
			}
			if math.Float64bits(fullDev[i].Gamma[k]) != math.Float64bits(fullSerial[i].Gamma[k]) {
				t.Errorf("p=%g class %d: device full sweep deviates", ps[i], k)
			}
		}
	}
}

func TestMatvecRuntimesSmoke(t *testing.T) {
	series, err := MatvecRuntimes(MatvecConfig{Nus: []int{6, 8, 10}, P: 0.01, Reps: 1, MaxFull: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("want 3 series, got %d", len(series))
	}
	// Θ(N²) must be extrapolated at ν=10.
	smp, ok := series[0].At(10)
	if !ok || !smp.Extrapolated {
		t.Error("Xmvp(ν) at ν=10 must be extrapolated")
	}
	for _, s := range series {
		for _, smp := range s.Samples {
			if smp.Seconds <= 0 {
				t.Errorf("series %s has non-positive time at ν=%d", s.Name, smp.Nu)
			}
		}
	}
}

func TestSolverRuntimesSmoke(t *testing.T) {
	series, err := SolverRuntimes(SolverConfig{
		Nus: []int{6, 8, 10}, MaxFull: 8, TolExact: 1e-11, TolApprox: 1e-9, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("want 3 series, got %d", len(series))
	}
	fm, ok := series[2].At(10)
	if !ok || fm.Iterations <= 0 {
		t.Error("Fmmp solve must record iterations")
	}
	full, ok := series[0].At(10)
	if !ok || !full.Extrapolated {
		t.Error("Pi(Xmvp(ν)) at ν=10 must be extrapolated")
	}
}

func TestShiftStudy(t *testing.T) {
	pts, err := ShiftStudy(9, 0.01, 1e-10, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	totalPlain, totalShifted := 0, 0
	for _, pt := range pts {
		if !pt.LambdaMatches {
			t.Errorf("seed %d: shifted eigenvalue differs", pt.Seed)
		}
		totalPlain += pt.IterPlain
		totalShifted += pt.IterShifted
	}
	if totalShifted >= totalPlain {
		t.Errorf("shift failed to help overall: %d vs %d", totalShifted, totalPlain)
	}
}

func TestAccuracyStudyMonotone(t *testing.T) {
	pts, err := AccuracyStudy(10, 0.01, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("want 8 points, got %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].VectorErr > pts[i-1].VectorErr*1.5+1e-15 {
			t.Errorf("dmax=%d: error %g grew from %g", pts[i].DMax, pts[i].VectorErr, pts[i-1].VectorErr)
		}
	}
	if pts[len(pts)-1].VectorErr > 1e-6 {
		t.Errorf("dmax=8 error %g still large", pts[len(pts)-1].VectorErr)
	}
}

func TestMeasureBest(t *testing.T) {
	calls := 0
	best := MeasureBest(5, func() { calls++ })
	if calls != 5 || best < 0 {
		t.Errorf("calls=%d best=%g", calls, best)
	}
	MeasureBest(0, func() { calls++ })
	if calls != 6 {
		t.Error("reps<1 must clamp to 1")
	}
}
