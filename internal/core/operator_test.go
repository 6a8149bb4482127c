package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/vec"
)

func randVector(r *rng.Source, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.Float64() - 1
	}
	return v
}

func randLandscape(r *rng.Source, nu int) landscape.Landscape {
	l, err := landscape.NewRandom(nu, 5, 1, r.Uint64())
	if err != nil {
		panic(err)
	}
	return l
}

var allForms = []Formulation{Right, Symmetric}

func TestFmmpOperatorMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nu := 1 + int(r.Uint64n(8))
		p := 0.001 + 0.4*r.Float64()
		q := mutation.MustUniform(nu, p)
		l := randLandscape(r, nu)
		v := randVector(r, q.Dim())
		for _, form := range allForms {
			want := make([]float64, q.Dim())
			dw, err := NewDenseW(q, l, form)
			if err != nil {
				return false
			}
			dw.Apply(want, v)

			op, err := NewFmmpOperator(q, l, form, nil)
			if err != nil {
				return false
			}
			got := make([]float64, q.Dim())
			op.Apply(got, v)
			if vec.DistInf(got, want) > 1e-11 {
				return false
			}
			// Aliased application must agree too.
			aliased := vec.Clone(v)
			op.Apply(aliased, aliased)
			if vec.DistInf(aliased, want) > 1e-11 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestXmvpOperatorMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nu := 1 + int(r.Uint64n(8))
		p := 0.001 + 0.4*r.Float64()
		l := randLandscape(r, nu)
		x, err := mutation.NewXmvp(nu, p, nu)
		if err != nil {
			return false
		}
		q := mutation.MustUniform(nu, p)
		v := randVector(r, x.Dim())
		want := make([]float64, x.Dim())
		dw, err := NewDenseW(q, l, Right)
		if err != nil {
			return false
		}
		dw.Apply(want, v)

		op, err := NewXmvpOperator(x, l, nil)
		if err != nil {
			return false
		}
		got := make([]float64, x.Dim())
		op.Apply(got, v)
		return vec.DistInf(got, want) <= 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOperatorsOnDeviceMatchSerial(t *testing.T) {
	r := rng.New(11)
	const nu = 9
	q := mutation.MustUniform(nu, 0.01)
	l := randLandscape(r, nu)
	v := randVector(r, q.Dim())
	dev := device.New(4, device.WithGrain(16))
	for _, form := range allForms {
		serialOp, err := NewFmmpOperator(q, l, form, nil)
		if err != nil {
			t.Fatal(err)
		}
		devOp, err := NewFmmpOperator(q, l, form, dev)
		if err != nil {
			t.Fatal(err)
		}
		a, b := make([]float64, q.Dim()), make([]float64, q.Dim())
		serialOp.Apply(a, v)
		devOp.Apply(b, v)
		if vec.DistInf(a, b) != 0 {
			t.Errorf("form %v: device operator differs from serial", form)
		}
	}
}

func TestConvertEigenvectorConsistency(t *testing.T) {
	// Solve the same problem in both formulations; the Symmetric
	// eigenvector converted by rightForm (the adaptive engine's conversion)
	// must agree with the Right one up to scale.
	r := rng.New(7)
	const nu = 7
	q := mutation.MustUniform(nu, 0.01)
	l := randLandscape(r, nu)
	var vecs [2][]float64
	var opS *FmmpOperator
	for i, form := range allForms {
		op, err := NewFmmpOperator(q, l, form, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := PowerIteration(op, PowerOptions{Tol: 1e-12, Start: FitnessStart(l)})
		if err != nil {
			t.Fatalf("form %v: %v", form, err)
		}
		vecs[i] = res.Vector
		if form == Symmetric {
			opS = op
		}
	}
	got := make([]float64, q.Dim())
	if err := rightForm(got, opS, vecs[1]); err != nil {
		t.Fatal(err)
	}
	vec.Normalize1(got)
	vec.Normalize1(vecs[0])
	if d := vec.DistInf(got, vecs[0]); d > 1e-8 {
		t.Errorf("converted Symmetric eigenvector differs from Right by %g", d)
	}
}

func TestConvertEigenvectorRoundTrip(t *testing.T) {
	// stageSymmetric (Right → Symmetric) then rightForm (back) returns the
	// unit Right-form vector; a collapsed vector is an error.
	r := rng.New(8)
	l := randLandscape(r, 5)
	opS, err := NewFmmpOperator(mutation.MustUniform(5, 0.01), l, Symmetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 32)
	for i := range x {
		x[i] = r.Float64() + 0.1
	}
	want := vec.Clone(x)
	vec.Normalize2(want)
	sym, got := make([]float64, 32), make([]float64, 32)
	stageSymmetric(sym, opS, x)
	if err := rightForm(got, opS, sym); err != nil {
		t.Fatal(err)
	}
	if d := vec.DistInf(got, want); d > 1e-14 {
		t.Errorf("round trip deviates by %g", d)
	}
	if err := rightForm(got, opS, make([]float64, 32)); err == nil {
		t.Error("a zero vector must not convert")
	}
}

func TestFormulationString(t *testing.T) {
	for _, f := range allForms {
		if f.String() == "" {
			t.Error("empty formulation name")
		}
	}
	if Formulation(99).String() == "" {
		t.Error("unknown formulation must still render")
	}
}

func TestOperatorConstructorsRejectMismatch(t *testing.T) {
	q := mutation.MustUniform(4, 0.1)
	l, _ := landscape.NewUniform(5, 1)
	if _, err := NewFmmpOperator(q, l, Right, nil); err == nil {
		t.Error("ν mismatch must be rejected (Fmmp)")
	}
	x, err := mutation.NewXmvp(4, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewXmvpOperator(x, l, nil); err == nil {
		t.Error("ν mismatch must be rejected (Xmvp)")
	}
	if _, err := NewDenseW(q, l, Right); err == nil {
		t.Error("ν mismatch must be rejected (dense)")
	}
}

func TestSymmetricFormIsSymmetric(t *testing.T) {
	r := rng.New(9)
	q := mutation.MustUniform(5, 0.03)
	l := randLandscape(r, 5)
	dw, err := NewDenseW(q, l, Symmetric)
	if err != nil {
		t.Fatal(err)
	}
	if !dw.M.IsSymmetric(1e-12) {
		t.Error("F^½QF^½ must be symmetric")
	}
	// The Right form generally is not.
	dr, _ := NewDenseW(q, l, Right)
	if dr.M.IsSymmetric(1e-12) {
		t.Error("Q·F with a random landscape should not be symmetric")
	}
}

func TestAllFormulationsShareSpectrum(t *testing.T) {
	r := rng.New(10)
	q := mutation.MustUniform(6, 0.02)
	l := randLandscape(r, 6)
	var lams []float64
	for _, form := range allForms {
		op, _ := NewFmmpOperator(q, l, form, nil)
		res, err := PowerIteration(op, PowerOptions{Tol: 1e-12, Start: FitnessStart(l)})
		if err != nil {
			t.Fatalf("form %v: %v", form, err)
		}
		lams = append(lams, res.Lambda)
	}
	for i := 1; i < len(lams); i++ {
		if math.Abs(lams[i]-lams[0]) > 1e-9 {
			t.Errorf("dominant eigenvalues differ across formulations: %v", lams)
		}
	}
}

func TestWithProcessSharesLandscape(t *testing.T) {
	const nu = 6
	l := randLandscape(rng.New(9), nu)
	q1 := mutation.MustUniform(nu, 0.01)
	q2 := mutation.MustUniform(nu, 0.02)
	op1, err := NewFmmpOperator(q1, l, Symmetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	op2, err := op1.WithProcess(q2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewFmmpOperator(q2, l, Symmetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(10)
	x := make([]float64, op2.Dim())
	for i := range x {
		x[i] = r.Float64() + 0.1
	}
	got := make([]float64, op2.Dim())
	ref := make([]float64, op2.Dim())
	op2.Apply(got, x)
	want.Apply(ref, x)
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("entry %d: WithProcess operator deviates", i)
		}
	}
	if _, err := op1.WithProcess(mutation.MustUniform(nu+1, 0.01)); err == nil {
		t.Error("chain-length mismatch must be rejected")
	}
}
