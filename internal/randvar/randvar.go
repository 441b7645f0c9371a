// Package randvar implements the random-variable machinery behind the
// leakage model: normal and lognormal helpers, multivariate-normal sampling,
// the closed-form moment E[exp(XᵀAX + bᵀX)] of a quadratic-exponential of a
// Gaussian vector (used for the pairwise leakage-correlation mapping
// f_{m,n}(ρ_L)), and the paper's non-central-χ² moment-generating function
// for the fitted cell leakage X = a·e^(bL+cL²) (Eqs. 1–5).
package randvar

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"leakest/internal/linalg"
)

// ErrDiverges is returned when a requested exponential moment does not exist
// (the Gaussian tail is overwhelmed by the quadratic growth of the exponent).
var ErrDiverges = errors.New("randvar: exponential moment diverges")

// NormalPDF returns the density of N(mu, sigma²) at x.
func NormalPDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return math.Exp(-0.5*z*z) / (sigma * math.Sqrt(2*math.Pi))
}

// NormalCDF returns the cumulative distribution of N(mu, sigma²) at x.
func NormalCDF(x, mu, sigma float64) float64 {
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// LogNormalMeanFactor returns E[exp(k·Z)] for Z ~ N(0, sigma²), i.e.
// exp(k²sigma²/2). This is the multiplicative correction the paper applies
// for random (uncorrelated) Vt fluctuation on the mean leakage: with
// leakage ∝ exp(−ΔVt/(n·vT)), k = 1/(n·vT).
func LogNormalMeanFactor(k, sigma float64) float64 {
	return math.Exp(0.5 * k * k * sigma * sigma)
}

// GaussExpMoment1D returns E[exp(c·L² + b·L)] for L ~ N(mu, sigma²).
// The moment exists iff 1 − 2·c·sigma² > 0; otherwise ErrDiverges.
//
// Closed form: with s = 1 − 2cσ²,
//
//	E = s^(−1/2) · exp( (c·mu² + b·mu + σ²b²/2 + σ²·b·(2c·mu)/2... )
//
// computed robustly by completing the square:
//
//	E = s^(−1/2) · exp( (b·mu + c·mu² + σ²(b + 2c·mu)²/(2s)) − ... )
//
// The exact expression used is E = s^{-1/2} exp( c·mu²+b·mu + σ²(b+2c·mu)²/(2s) ).
func GaussExpMoment1D(b, c, mu, sigma float64) (float64, error) {
	s := 1 - 2*c*sigma*sigma
	if s <= 0 {
		return 0, fmt.Errorf("%w: 1-2cσ² = %g ≤ 0", ErrDiverges, s)
	}
	u := b + 2*c*mu
	exponent := c*mu*mu + b*mu + sigma*sigma*u*u/(2*s)
	return math.Exp(exponent) / math.Sqrt(s), nil
}

// GaussQuadExp2D returns E[exp(xᵀAx + bᵀx)] for x ~ N(m, Σ) in R², where
// A = diag(a1, a2) and Σ = [[s1², ρ·s1·s2], [ρ·s1·s2, s2²]].
//
// This is the quantity needed for E[X_m·X_n] of two fitted leakage cells
// placed at locations whose channel lengths have correlation ρ:
//
//	E[X_m X_n] = a_m·a_n · GaussQuadExp2D(c_m, c_n, b_m, b_n, ...)
//
// Closed form: with M = Σ⁻¹ − 2A (must be positive definite) and
// u = Σ⁻¹m + b,
//
//	E = |I − 2ΣA|^{−1/2} · exp( ½·uᵀM⁻¹u − ½·mᵀΣ⁻¹m ).
func GaussQuadExp2D(a1, a2, b1, b2, m1, m2, s1, s2, rho float64) (float64, error) {
	if s1 <= 0 || s2 <= 0 {
		return 0, fmt.Errorf("randvar: non-positive sigma (%g, %g)", s1, s2)
	}
	if rho <= -1 || rho >= 1 {
		// Perfectly correlated pair degenerates to the 1-D case; callers
		// handle ρ=1 via GaussExpMoment1D when s1==s2.
		return 0, fmt.Errorf("randvar: |rho| = %g must be < 1", math.Abs(rho))
	}
	v1, v2 := s1*s1, s2*s2
	cov := rho * s1 * s2
	det := v1*v2 - cov*cov // > 0 since |rho|<1
	// Σ⁻¹ entries.
	i11 := v2 / det
	i22 := v1 / det
	i12 := -cov / det
	// M = Σ⁻¹ − 2A.
	m11 := i11 - 2*a1
	m22 := i22 - 2*a2
	m12 := i12
	detM := m11*m22 - m12*m12
	if detM <= 0 || m11 <= 0 {
		return 0, fmt.Errorf("%w: Σ⁻¹−2A not positive definite (det %g)", ErrDiverges, detM)
	}
	// u = Σ⁻¹·m + b.
	u1 := i11*m1 + i12*m2 + b1
	u2 := i12*m1 + i22*m2 + b2
	// uᵀM⁻¹u with M⁻¹ = [[m22, −m12], [−m12, m11]]/detM.
	quadU := (m22*u1*u1 - 2*m12*u1*u2 + m11*u2*u2) / detM
	// mᵀΣ⁻¹m.
	quadM := i11*m1*m1 + 2*i12*m1*m2 + i22*m2*m2
	// |I − 2ΣA| = |Σ|·|M| = det·detM.
	norm := det * detM
	return math.Exp(0.5*(quadU-quadM)) / math.Sqrt(norm), nil
}

// MGFParams holds the K₁, K₂, K₃ constants of the paper's Eqs. (4)–(5) for a
// fitted cell X = a·e^(bL+cL²) with L ~ N(mu, sigma²).
type MGFParams struct {
	K1, K2, K3 float64
	// c retained to dispatch the degenerate c→0 (pure lognormal) branch.
	b, c, lnA, mu, sigma float64
}

// NewMGFParams computes the paper's constants from the regression triplet
// (a, b, c) and the channel-length statistics. a must be positive.
func NewMGFParams(a, b, c, mu, sigma float64) (MGFParams, error) {
	if a <= 0 {
		return MGFParams{}, fmt.Errorf("randvar: fit amplitude a = %g must be positive", a)
	}
	if sigma <= 0 {
		return MGFParams{}, fmt.Errorf("randvar: sigma = %g must be positive", sigma)
	}
	p := MGFParams{b: b, c: c, lnA: math.Log(a), mu: mu, sigma: sigma}
	if c != 0 {
		shift := b/(2*c) + mu
		p.K1 = c * sigma * sigma
		p.K2 = shift / sigma
		p.K3 = p.lnA + b*mu + c*mu*mu - c*shift*shift
	}
	return p, nil
}

// MGF evaluates M_Y(t) for Y = ln X, Eq. (3). Note: the paper prints the
// prefactor as (1−2K₁t)^{+1/2}; the non-central-χ² MGF requires exponent
// −1/2 (one degree of freedom, non-centrality K₂²), which is what we use and
// verify against direct numerical integration in the tests.
//
// For c = 0 the distribution is exactly lognormal and
// M_Y(t) = exp((ln a + b·mu)·t + ½ b²σ²t²).
func (p MGFParams) MGF(t float64) (float64, error) {
	if p.c == 0 {
		return math.Exp((p.lnA+p.b*p.mu)*t + 0.5*p.b*p.b*p.sigma*p.sigma*t*t), nil
	}
	s := 1 - 2*p.K1*t
	if s <= 0 {
		return 0, fmt.Errorf("%w: 1-2K₁t = %g ≤ 0 at t=%g", ErrDiverges, s, t)
	}
	return math.Exp(p.K2*p.K2*p.K1*t/s+p.K3*t) / math.Sqrt(s), nil
}

// Moments returns the exact mean and standard deviation of X = a·e^(bL+cL²),
// Eqs. (1)–(2): μ_X = M_Y(1), σ_X² = M_Y(2) − μ_X².
func (p MGFParams) Moments() (mean, std float64, err error) {
	m1, err := p.MGF(1)
	if err != nil {
		return 0, 0, fmt.Errorf("randvar: first moment: %w", err)
	}
	m2, err := p.MGF(2)
	if err != nil {
		return 0, 0, fmt.Errorf("randvar: second moment: %w", err)
	}
	v := m2 - m1*m1
	if v < 0 {
		// Round-off for nearly deterministic X; clamp.
		v = 0
	}
	return m1, math.Sqrt(v), nil
}

// MVNSampler draws samples from a multivariate normal N(mean, Σ) using a
// pre-computed Cholesky factor of Σ.
type MVNSampler struct {
	mean []float64
	l    *linalg.Matrix
	z    []float64 // scratch
}

// NewMVNSampler prepares a sampler for N(mean, cov). cov must be symmetric
// positive (semi-)definite; a tiny diagonal jitter is applied if needed.
func NewMVNSampler(mean []float64, cov *linalg.Matrix) (*MVNSampler, error) {
	if cov.Rows() != len(mean) || cov.Cols() != len(mean) {
		return nil, fmt.Errorf("randvar: cov %dx%d incompatible with mean length %d",
			cov.Rows(), cov.Cols(), len(mean))
	}
	l, _, err := linalg.CholeskyJittered(cov, 1e-6)
	if err != nil {
		return nil, fmt.Errorf("randvar: covariance factorization: %w", err)
	}
	m := make([]float64, len(mean))
	copy(m, mean)
	return &MVNSampler{mean: m, l: l, z: make([]float64, len(mean))}, nil
}

// Dim returns the dimensionality of the sampler.
func (s *MVNSampler) Dim() int { return len(s.mean) }

// Sample fills out with one draw x = mean + L·z, z ~ N(0, I). out must have
// length Dim. It reuses the sampler's internal scratch, so it is not safe
// for concurrent use; parallel callers use SampleInto with per-worker
// scratch instead.
func (s *MVNSampler) Sample(rng *rand.Rand, out []float64) {
	s.SampleInto(rng, s.z, out)
}

// SampleInto is Sample with caller-supplied standard-normal scratch z (length
// Dim), making the sampler safe for concurrent draws as long as each worker
// owns its z and out buffers. The draw consumes exactly Dim normals from rng
// in index order, so a per-trial PRNG stream yields identical fields at any
// worker count.
func (s *MVNSampler) SampleInto(rng *rand.Rand, z, out []float64) {
	n := len(s.mean)
	if len(out) != n {
		panic(fmt.Sprintf("randvar: Sample out length %d != dim %d", len(out), n))
	}
	if len(z) != n {
		panic(fmt.Sprintf("randvar: Sample scratch length %d != dim %d", len(z), n))
	}
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	s.mulInto(z, out)
}

// SamplePartialInto is SampleInto except the leading fixed entries of z are
// taken as the caller supplied them — the quasi-MC hook: low-discrepancy
// deviates drive the first Cholesky directions (which carry the most field
// variance; with a D2D component the first column is the dominant shared
// shift), and only z[fixed:] is drawn from rng, in index order. With
// fixed = 0 the draw is bitwise identical to SampleInto. Allocation-free.
func (s *MVNSampler) SamplePartialInto(rng *rand.Rand, z, out []float64, fixed int) {
	n := len(s.mean)
	if len(out) != n {
		panic(fmt.Sprintf("randvar: Sample out length %d != dim %d", len(out), n))
	}
	if len(z) != n {
		panic(fmt.Sprintf("randvar: Sample scratch length %d != dim %d", len(z), n))
	}
	if fixed < 0 || fixed > n {
		panic(fmt.Sprintf("randvar: Sample fixed count %d outside [0, %d]", fixed, n))
	}
	for i := fixed; i < n; i++ {
		z[i] = rng.NormFloat64()
	}
	s.mulInto(z, out)
}

// mulInto writes out = mean + L·z. Each out[i] is accumulated from mean[i]
// through Σ_{j≤i} L_ij·z_j in j order; rows run four at a time, one
// accumulator each, so four independent dependency chains share each load
// of z_j, and every row's sum is bitwise the row-at-a-time one.
func (s *MVNSampler) mulInto(z, out []float64) {
	n := len(s.mean)
	i := 0
	for ; i+3 < n; i += 4 {
		r0 := s.l.Row(i)[:i+1]
		r1 := s.l.Row(i + 1)[:i+2]
		r2 := s.l.Row(i + 2)[:i+3]
		r3 := s.l.Row(i + 3)[:i+4]
		zi := z[:len(r0)]
		r1h, r2h, r3h := r1[:len(zi)], r2[:len(zi)], r3[:len(zi)]
		a0, a1, a2, a3 := s.mean[i], s.mean[i+1], s.mean[i+2], s.mean[i+3]
		for j, v := range zi {
			a0 += r0[j] * v
			a1 += r1h[j] * v
			a2 += r2h[j] * v
			a3 += r3h[j] * v
		}
		// The three rows longer than r0 finish their sums in j order.
		a1 += r1[i+1] * z[i+1]
		a2 += r2[i+1] * z[i+1]
		a2 += r2[i+2] * z[i+2]
		a3 += r3[i+1] * z[i+1]
		a3 += r3[i+2] * z[i+2]
		a3 += r3[i+3] * z[i+3]
		out[i], out[i+1], out[i+2], out[i+3] = a0, a1, a2, a3
	}
	for ; i < n; i++ {
		acc := s.mean[i]
		for j, v := range s.l.Row(i)[:i+1] {
			acc += v * z[j]
		}
		out[i] = acc
	}
}

// BivariateNormal draws a correlated standard-normal pair with correlation
// rho, scaled to the given means and sigmas. It is the cheap special case
// used throughout cell characterization.
func BivariateNormal(rng *rand.Rand, mu1, s1, mu2, s2, rho float64) (float64, float64) {
	z1 := rng.NormFloat64()
	z2 := rng.NormFloat64()
	x1 := mu1 + s1*z1
	x2 := mu2 + s2*(rho*z1+math.Sqrt(1-rho*rho)*z2)
	return x1, x2
}
