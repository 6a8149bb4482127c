// Package core implements the paper's fast quasispecies solver: implicit
// linear operators for the Right and Symmetric eigenproblem formulations
// (Eqs. 3–4), the residual-monitored power iteration with the provably safe
// convergence shift µ = (1−2p)^ν·f_min (Section 3), and the Krylov
// alternatives Section 3 names: the adaptive engine's Lanczos probe,
// Chebyshev and shift-invert Lanczos gears (symmetric problems) and
// restarted Arnoldi (any process). Operators can run serially or on a
// device (the GPU analogue), and can be backed by any of the
// matrix–vector products the paper compares: Fmmp, Xmvp(dmax) or dense
// Smvp.
package core

import (
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/vec"
)

// Formulation selects between two of the mathematically equivalent
// eigenproblems of Eqs. 3–5. Their dominant eigenvalues coincide; the
// eigenvectors are related by the diagonal scaling xS = F^½·xR (the
// adaptive engine's stageSymmetric and rightForm).
type Formulation int

const (
	// Right is Q·F·x = λx (Eq. 3). Its eigenvector holds the relative
	// concentrations of the quasispecies directly.
	Right Formulation = iota
	// Symmetric is F^½·Q·F^½·x = λx (Eq. 4), the symmetric positive
	// definite form used by the Krylov gears.
	Symmetric
)

func (f Formulation) String() string {
	switch f {
	case Right:
		return "Q·F"
	case Symmetric:
		return "F^1/2·Q·F^1/2"
	default:
		return fmt.Sprintf("Formulation(%d)", int(f))
	}
}

// Operator is an implicitly represented square matrix. Apply computes
// dst ← A·src; implementations permit dst == src (aliasing) and may use
// internal scratch, so a given Operator must not be applied concurrently
// with itself.
type Operator interface {
	// Dim returns the operator dimension N.
	Dim() int
	// Apply computes dst ← A·src. dst may alias src.
	Apply(dst, src []float64)
}

// ---------------------------------------------------------------------------
// Fmmp-backed operator (the paper's fast path)

// FmmpOperator applies W in one of the three formulations using the fast
// mutation matrix product — Θ(N·log₂N) per Apply, no matrix storage.
type FmmpOperator struct {
	Q    *mutation.Process
	F    landscape.Landscape
	Form Formulation
	Dev  *device.Device // nil for serial execution

	fdiag []float64 // materialized diagonal used by the formulation
	fsqrt []float64 // √f for the symmetric form (nil otherwise)
}

// NewFmmpOperator builds the operator; the landscape diagonal is
// materialized once (Θ(N), as Section 3 notes is unavoidable for general
// F). dev == nil selects serial execution.
func NewFmmpOperator(q *mutation.Process, f landscape.Landscape, form Formulation, dev *device.Device) (*FmmpOperator, error) {
	if q.ChainLen() != f.ChainLen() {
		return nil, fmt.Errorf("core: mutation ν = %d but landscape ν = %d", q.ChainLen(), f.ChainLen())
	}
	op := &FmmpOperator{Q: q, F: f, Form: form, Dev: dev}
	op.fdiag = landscape.Materialize(f)
	if form == Symmetric {
		op.fsqrt = make([]float64, len(op.fdiag))
		for i, v := range op.fdiag {
			op.fsqrt[i] = math.Sqrt(v)
		}
	}
	return op, nil
}

// WithProcess returns a new operator driving the same landscape diagonal
// through a different mutation process of equal chain length — the
// per-point operator of an error-rate sweep. The Θ(N) materialized
// diagonal (and √F for the symmetric form) is shared with op, so building
// the operator for the next sweep point is Θ(1).
func (op *FmmpOperator) WithProcess(q *mutation.Process) (*FmmpOperator, error) {
	if q.ChainLen() != op.F.ChainLen() {
		return nil, fmt.Errorf("core: mutation ν = %d but landscape ν = %d", q.ChainLen(), op.F.ChainLen())
	}
	return &FmmpOperator{Q: q, F: op.F, Form: op.Form, Dev: op.Dev, fdiag: op.fdiag, fsqrt: op.fsqrt}, nil
}

func (op *FmmpOperator) Dim() int { return op.Q.Dim() }

// Apply computes dst ← W·src per the selected formulation.
func (op *FmmpOperator) Apply(dst, src []float64) {
	if len(dst) != op.Dim() || len(src) != op.Dim() {
		panic("core: FmmpOperator.Apply dimension mismatch")
	}
	op.apply(dst, src, mutation.Epilogue{})
}

// applyThreeTerm computes w ← W·z and, in the same last butterfly pass, the
// Chebyshev three-term step out ← s·(w − c·z) − out: bit-identical to Apply
// followed by chebMap2 with s = 2/e. w, z and out must be distinct.
func (op *FmmpOperator) applyThreeTerm(w, z, out []float64, s, c float64) {
	op.apply(w, z, mutation.Epilogue{Out: out, Z: z, S: s, C: c})
}

// apply is one mutation call per formulation: the leading diagonal rides in
// the first tile pass, the trailing one and ep's three-term step in the last
// butterfly pass.
func (op *FmmpOperator) apply(dst, src []float64, ep mutation.Epilogue) {
	switch op.Form {
	case Right: // Q·F
		op.Q.ApplyFused(op.Dev, dst, src, op.fdiag, ep)
	case Symmetric: // F^½·Q·F^½
		ep.Post = op.fsqrt
		op.Q.ApplyFused(op.Dev, dst, src, op.fsqrt, ep)
	default:
		panic(fmt.Sprintf("core: unknown formulation %d", op.Form))
	}
}

// Fitness returns the materialized fitness diagonal (read-only).
func (op *FmmpOperator) Fitness() []float64 { return op.fdiag }

// FitnessStart returns the paper's starting vector diag(F)/‖diag(F)‖₁ built
// from the operator's materialized diagonal: bit-identical to
// FitnessStart(op.F) without materializing the landscape a second time.
func (op *FmmpOperator) FitnessStart() []float64 {
	s := make([]float64, len(op.fdiag))
	op.fitnessStartInto(s)
	return s
}

// fitnessStartInto writes the fitness start into dst (length Dim()).
func (op *FmmpOperator) fitnessStartInto(dst []float64) {
	copy(dst, op.fdiag)
	vec.Normalize1(dst)
}

// ---------------------------------------------------------------------------
// Xmvp-backed operator (the baseline of [10])

// XmvpOperator applies the Right-form W = Q·F through the XOR-based
// (sparsified) product. With DMax = ν it is the paper's Smvp-equivalent
// Θ(N²) reference; smaller DMax gives the approximative baseline.
type XmvpOperator struct {
	X   *mutation.Xmvp
	F   landscape.Landscape
	Dev *device.Device

	fdiag   []float64
	scratch []float64
}

// NewXmvpOperator builds the operator around an existing Xmvp product.
func NewXmvpOperator(x *mutation.Xmvp, f landscape.Landscape, dev *device.Device) (*XmvpOperator, error) {
	if x.ChainLen() != f.ChainLen() {
		return nil, fmt.Errorf("core: Xmvp ν = %d but landscape ν = %d", x.ChainLen(), f.ChainLen())
	}
	return &XmvpOperator{
		X: x, F: f, Dev: dev,
		fdiag: landscape.Materialize(f), scratch: make([]float64, x.Dim()),
	}, nil
}

func (op *XmvpOperator) Dim() int { return op.X.Dim() }

// Apply computes dst ← Q·F·src.
func (op *XmvpOperator) Apply(dst, src []float64) {
	if len(dst) != op.Dim() || len(src) != op.Dim() {
		panic("core: XmvpOperator.Apply dimension mismatch")
	}
	op.Dev.Mul(op.scratch, src, op.fdiag)
	if op.Dev != nil {
		op.X.ApplyDevice(op.Dev, dst, op.scratch)
	} else {
		op.X.Apply(dst, op.scratch)
	}
}

// ---------------------------------------------------------------------------
// Dense operator (explicit Smvp)

// DenseOperator wraps an explicitly stored matrix — the textbook Smvp with
// Θ(N²) storage and time. Only feasible for small ν; it is the ground
// truth the fast paths are verified against.
type DenseOperator struct {
	M       *dense.Matrix
	scratch []float64
}

// NewDenseOperator wraps m, which must be square.
func NewDenseOperator(m *dense.Matrix) (*DenseOperator, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("core: dense operator must be square, got %d×%d", m.Rows, m.Cols)
	}
	return &DenseOperator{M: m, scratch: make([]float64, m.Rows)}, nil
}

// NewDenseW materializes W for the given formulation from Q and F — the
// fully explicit baseline.
func NewDenseW(q *mutation.Process, f landscape.Landscape, form Formulation) (*DenseOperator, error) {
	if q.ChainLen() != f.ChainLen() {
		return nil, fmt.Errorf("core: mutation ν = %d but landscape ν = %d", q.ChainLen(), f.ChainLen())
	}
	m := q.Dense()
	fd := landscape.Materialize(f)
	switch form {
	case Right:
		m.ScaleColumns(fd)
	case Symmetric:
		s := make([]float64, len(fd))
		for i, v := range fd {
			s[i] = math.Sqrt(v)
		}
		m.ScaleColumns(s)
		m.ScaleRows(s)
	default:
		return nil, fmt.Errorf("core: unknown formulation %d", form)
	}
	return NewDenseOperator(m)
}

func (op *DenseOperator) Dim() int { return op.M.Rows }

// Apply computes dst ← M·src; aliasing is handled through a scratch copy.
func (op *DenseOperator) Apply(dst, src []float64) {
	if &dst[0] == &src[0] {
		copy(op.scratch, src)
		op.M.MatVec(dst, op.scratch)
		return
	}
	op.M.MatVec(dst, src)
}
