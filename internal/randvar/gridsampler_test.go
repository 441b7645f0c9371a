package randvar

import (
	"math"
	"strings"
	"testing"

	"leakest/internal/fft"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

func gridTestProcess() *spatial.Process {
	const l = 0.09
	sigma := 0.04 * l
	return &spatial.Process{
		LNominal: l,
		SigmaD2D: sigma * math.Sqrt(0.5),
		SigmaWID: sigma * math.Sqrt(0.5),
		WIDCorr:  spatial.TruncatedExpCorr{Lambda: 6, R: 24},
	}
}

// Property required by the embedding: the torus covariance implied by the
// retained spectrum — the normalized inverse DFT of λ — reproduces the WID
// kernel σ_WID²·ρ(LagDist) at EVERY admissible grid lag, to FFT round-off.
// This is what makes the FFT sampler exact rather than approximate.
func TestGridSamplerKernelExactAtEveryLag(t *testing.T) {
	proc := gridTestProcess()
	for _, dims := range [][2]int{{1, 1}, {1, 16}, {5, 5}, {12, 7}, {32, 32}} {
		grid := placement.Grid{Rows: dims[0], Cols: dims[1], SiteW: 2, SiteH: 2}
		s, err := NewGridSampler(proc, grid)
		if err != nil {
			t.Fatalf("%dx%d: %v", dims[0], dims[1], err)
		}
		// λ_k = scale[k]²·tm·tn; covariance at lag = (1/MN)·Σ λ_k e^{iθ·lag},
		// i.e. the normalized inverse DFT of the spectrum.
		mn := float64(s.tm * s.tn)
		cov := make([]complex128, s.tm*s.tn)
		for k, a := range s.scale {
			cov[k] = complex(a*a*mn, 0)
		}
		if err := fft.Transform2D(cov, s.tm, s.tn, true); err != nil {
			t.Fatal(err)
		}
		vw := proc.SigmaWID * proc.SigmaWID
		worst := 0.0
		for dr := 0; dr < grid.Rows; dr++ {
			for dc := 0; dc < grid.Cols; dc++ {
				got := real(cov[dr*s.tn+dc]) / mn
				want := vw * proc.WIDCorr.Rho(grid.LagDist(dr, dc))
				if d := math.Abs(got - want); d > worst {
					worst = d
				}
			}
		}
		if tol := 1e-12 * vw; worst > tol {
			t.Errorf("%dx%d grid (torus %dx%d): worst lag-covariance deviation %g > %g",
				dims[0], dims[1], s.tm, s.tn, worst, tol)
		}
	}
}

// The sampled field's empirical moments must match the dense model
// Σ_ab = σ_D2D² + σ_WID²·ρ(d_ab) within Monte-Carlo standard error.
func TestGridSamplerEmpiricalMoments(t *testing.T) {
	proc := gridTestProcess()
	grid := placement.Grid{Rows: 8, Cols: 8, SiteW: 2, SiteH: 2}
	s, err := NewGridSampler(proc, grid)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 20000
	rng := stats.NewRNG(99, "gridsampler-moments")
	sc := s.NewScratch()
	field := make([]float64, s.Sites())
	// Track site 0 against three partners: itself (variance), a neighbour,
	// and the far corner.
	partners := []int{0, 1, s.Sites() - 1}
	a := make([]float64, trials)
	bs := make([][]float64, len(partners))
	for i := range bs {
		bs[i] = make([]float64, trials)
	}
	for tr := 0; tr < trials; tr++ {
		if err := s.SampleInto(rng, sc, field); err != nil {
			t.Fatal(err)
		}
		a[tr] = field[0]
		for i, p := range partners {
			bs[i][tr] = field[p]
		}
	}
	if m := stats.Mean(a); math.Abs(m-proc.LNominal) > 5*proc.TotalSigma()/math.Sqrt(trials) {
		t.Errorf("field mean %g vs nominal %g", m, proc.LNominal)
	}
	vd := proc.SigmaD2D * proc.SigmaD2D
	vw := proc.SigmaWID * proc.SigmaWID
	pl := &placement.Placement{Grid: grid, Site: identitySites(grid.Sites())}
	for i, p := range partners {
		want := vd + vw*proc.WIDCorr.Rho(pl.Dist(0, p))
		got := stats.Covariance(a, bs[i])
		// SE of a sample covariance is O(var/√n); allow 5× with headroom.
		se := 5 * (vd + vw) * 1.5 / math.Sqrt(trials)
		if math.Abs(got-want) > se {
			t.Errorf("cov(site 0, site %d) = %g, want %g ± %g", p, got, want, se)
		}
	}
}

func identitySites(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// Two samplers over the same stream must agree bitwise, and the WID-free
// process must produce a constant field equal to mean + σ_D2D·z₀.
func TestGridSamplerDeterminismAndD2DOnly(t *testing.T) {
	proc := gridTestProcess()
	grid := placement.Grid{Rows: 6, Cols: 10, SiteW: 2, SiteH: 2}
	s1, err := NewGridSampler(proc, grid)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewGridSampler(proc, grid)
	f1 := make([]float64, s1.Sites())
	f2 := make([]float64, s2.Sites())
	if err := s1.SampleInto(stats.NewRNG(7, "det"), s1.NewScratch(), f1); err != nil {
		t.Fatal(err)
	}
	if err := s2.SampleInto(stats.NewRNG(7, "det"), s2.NewScratch(), f2); err != nil {
		t.Fatal(err)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("draw not deterministic at site %d: %v vs %v", i, f1[i], f2[i])
		}
	}
	d2d := &spatial.Process{LNominal: 0.09, SigmaD2D: 0.002}
	sd, err := NewGridSampler(d2d, grid)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7, "d2d-only")
	want := d2d.LNominal + d2d.SigmaD2D*stats.NewRNG(7, "d2d-only").NormFloat64()
	if err := sd.SampleInto(rng, sd.NewScratch(), f1); err != nil {
		t.Fatal(err)
	}
	for i, v := range f1 {
		if v != want {
			t.Fatalf("D2D-only field not constant at %d: %v vs %v", i, v, want)
		}
	}
}

// boxcarCorr is deliberately not positive definite on the plane (a 2-D
// boxcar has a sign-changing spectrum), so every embedding attempt must be
// rejected and NewGridSampler must surface the typed failure.
type boxcarCorr struct{}

func (boxcarCorr) Rho(d float64) float64 {
	if d < 40 {
		return 1
	}
	return 0
}
func (boxcarCorr) Range() float64 { return 40 }
func (boxcarCorr) Name() string   { return "boxcar" }

func TestGridSamplerRejectsNonPSDKernel(t *testing.T) {
	proc := &spatial.Process{LNominal: 0.09, SigmaWID: 0.003, WIDCorr: boxcarCorr{}}
	grid := placement.Grid{Rows: 32, Cols: 32, SiteW: 2, SiteH: 2}
	if _, err := NewGridSampler(proc, grid); err == nil {
		t.Fatal("non-PSD kernel accepted")
	} else if !strings.Contains(err.Error(), "not PSD") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// A kernel whose support radius dwarfs the die (the default 90 nm process
// carries a 4 mm truncated exponential) must NOT drag the torus to the
// 4096²-point embedding its range would nominally demand — that stalled the
// CLI for minutes on a 100-gate design. The sampler must stay on the
// grid-minimal torus, absorb the small clamped mass, renormalize the site
// variance back to exact, and keep every lag covariance within the
// documented 2·ClampBias·σ_WID² bound.
func TestGridSamplerLongRangeKernelClamps(t *testing.T) {
	proc := spatial.Default90nm()
	grid := placement.Grid{Rows: 12, Cols: 12, SiteW: 2, SiteH: 2}
	s, err := NewGridSampler(proc, grid)
	if err != nil {
		t.Fatal(err)
	}
	tm, tn := s.TorusDims()
	if want := fft.NextPow2(2*grid.Rows - 2); tm != want || tn != want {
		t.Fatalf("torus %dx%d, want grid-minimal %dx%d", tm, tn, want, want)
	}
	bias := s.ClampBias()
	if bias <= 0 || bias > embedClampBudget {
		t.Fatalf("clamp bias %g outside (0, %g]", bias, embedClampBudget)
	}
	// Reconstruct the realized covariance (normalized inverse DFT of the
	// retained spectrum) and compare against the target kernel.
	mn := float64(tm * tn)
	cov := make([]complex128, tm*tn)
	for k, a := range s.scale {
		cov[k] = complex(a*a*mn, 0)
	}
	if err := fft.Transform2D(cov, tm, tn, true); err != nil {
		t.Fatal(err)
	}
	vw := proc.SigmaWID * proc.SigmaWID
	if got := real(cov[0]) / mn; math.Abs(got-vw) > 1e-9*vw {
		t.Errorf("renormalized site variance %g, want exactly %g", got, vw)
	}
	worst := 0.0
	for dr := 0; dr < grid.Rows; dr++ {
		for dc := 0; dc < grid.Cols; dc++ {
			got := real(cov[dr*tn+dc]) / mn
			want := vw * proc.WIDCorr.Rho(grid.LagDist(dr, dc))
			if d := math.Abs(got - want); d > worst {
				worst = d
			}
		}
	}
	if tol := 2 * bias * vw; worst > tol {
		t.Errorf("worst lag-covariance error %g > bound 2·bias·vw = %g", worst, tol)
	}
}

func TestGridSamplerValidation(t *testing.T) {
	proc := gridTestProcess()
	if _, err := NewGridSampler(nil, placement.Grid{Rows: 2, Cols: 2, SiteW: 2, SiteH: 2}); err == nil {
		t.Error("nil process accepted")
	}
	if _, err := NewGridSampler(proc, placement.Grid{Rows: 0, Cols: 4, SiteW: 2, SiteH: 2}); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := NewGridSampler(&spatial.Process{LNominal: 0.09, SigmaWID: 0.003}, placement.Grid{Rows: 2, Cols: 2, SiteW: 2, SiteH: 2}); err == nil {
		t.Error("WID variation without correlation accepted")
	}
}

// The per-trial body must stay allocation-free once scratch is warmed — the
// property the chipmc hot loop depends on.
func TestGridSamplerSampleAllocs(t *testing.T) {
	proc := gridTestProcess()
	grid := placement.Grid{Rows: 16, Cols: 16, SiteW: 2, SiteH: 2}
	s, err := NewGridSampler(proc, grid)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3, "allocs")
	sc := s.NewScratch()
	field := make([]float64, s.Sites())
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.SampleInto(rng, sc, field); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SampleInto allocates %.1f times per draw, want 0", allocs)
	}
}

// TestGridSamplerTiltedDraw pins the importance-sampling contract of the
// pair body: DrawPair reports the raw D2D deviates it drew (the two normals
// after the spectrum in the pair's stream), ExtractPair at tilt 0 is bitwise
// the untilted field pair, and at tilt θ every site of both channels moves
// by exactly σ_D2D·θ while the WID texture stays unchanged.
func TestGridSamplerTiltedDraw(t *testing.T) {
	proc := gridTestProcess()
	grid := placement.Grid{Rows: 6, Cols: 10, SiteW: 2, SiteH: 2}
	s, err := NewGridSampler(proc, grid)
	if err != nil {
		t.Fatal(err)
	}
	torus := make([]complex128, s.TorusLen())
	z0a, z0b := s.DrawPair(stats.NewRNG(3, "tilt"), torus)
	replay := stats.NewRNG(3, "tilt")
	s.FillPairSpectrum(replay, make([]complex128, s.TorusLen()))
	if wa, wb := replay.NormFloat64(), replay.NormFloat64(); z0a != wa || z0b != wb {
		t.Fatalf("DrawPair returned deviates (%v, %v), want the stream's raw (%v, %v)", z0a, z0b, wa, wb)
	}
	tm, tn := s.TorusDims()
	if err := fft.Transform2D(torus, tm, tn, true); err != nil {
		t.Fatal(err)
	}
	sites := s.Sites()
	fa, fb := make([]float64, sites), make([]float64, sites)
	ta, tb := make([]float64, sites), make([]float64, sites)
	s.ExtractPair(torus, z0a, z0b, 0, fa, fb)
	for r := 0; r < grid.Rows; r++ {
		for c := 0; c < grid.Cols; c++ {
			i, v := r*grid.Cols+c, torus[r*tn+c]
			if wa, wb := proc.LNominal+proc.SigmaD2D*z0a+real(v), proc.LNominal+proc.SigmaD2D*z0b+imag(v); fa[i] != wa || fb[i] != wb {
				t.Fatalf("tilt=0 site %d: (%v, %v), want untilted (%v, %v)", i, fa[i], fb[i], wa, wb)
			}
		}
	}

	const theta = 2.5
	s.ExtractPair(torus, z0a, z0b, theta, ta, tb)
	// Every site moves by σ_D2D·θ up to one rounding of the final add, which
	// also pins that the WID texture is untouched by the tilt.
	for i := range fa {
		for _, d := range []float64{ta[i] - fa[i], tb[i] - fb[i]} {
			if math.Abs(d-proc.SigmaD2D*theta) > 1e-15 {
				t.Fatalf("site %d moved by %v, want σ_D2D·θ = %v", i, d, proc.SigmaD2D*theta)
			}
		}
	}
}
