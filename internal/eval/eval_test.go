package eval

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/solar"
	"repro/internal/synth"
)

// paperCfg is the optimizer configuration built from the published Table 2
// values — the source the paper's Figures 5–7 derive from.
func paperCfg() core.Config { return core.DefaultConfig() }

var (
	smallOnce sync.Once
	smallDS   *synth.Dataset
	smallErr  error
)

// smallCorpus keeps training-based tests quick.
func smallCorpus(t *testing.T) *synth.Dataset {
	t.Helper()
	smallOnce.Do(func() {
		smallDS, smallErr = synth.NewDataset(synth.CorpusConfig{
			NumUsers: 8, TotalWindows: 1600, Seed: 2019,
		})
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallDS
}

func TestTable2Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	res, err := Table2On(smallCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for i, row := range res.Rows {
		if math.Abs(row.AccuracyPct-res.PaperAccuracyPct[i]) > 5 {
			t.Errorf("%s accuracy %.1f%%, paper %.0f%% (tolerance 5 on the small corpus)",
				row.Name, row.AccuracyPct, res.PaperAccuracyPct[i])
		}
		if row.EnergyMJ <= 0 || row.PowerMW <= 0 || row.TotalMs <= 0 {
			t.Errorf("%s has non-positive physicals", row.Name)
		}
	}
	out := res.Render()
	for _, want := range []string{"DP1", "DP5", "power(mW)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigure3Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	res, err := Figure3On(smallCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 24 {
		t.Fatalf("%d points, want 24", len(res.Points))
	}
	front, published := 0, 0
	for _, p := range res.Points {
		if p.OnFront {
			front++
		}
		if p.Published {
			published++
		}
	}
	if front < 4 {
		t.Fatalf("front of %d", front)
	}
	if published != 5 {
		t.Fatalf("%d published points", published)
	}
	if !strings.Contains(res.Render(), "Pareto") {
		t.Error("render missing front marker legend")
	}
}

func TestFigure4Experiment(t *testing.T) {
	res, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 9.9 J total, ~47% sensors.
	if math.Abs(res.TotalJ-9.9) > 9.9*0.15 {
		t.Errorf("DP1 hour total %.2f J, paper 9.9", res.TotalJ)
	}
	if math.Abs(res.SensorSharePct-47) > 47*0.15 {
		t.Errorf("sensor share %.1f%%, paper ~47%%", res.SensorSharePct)
	}
	var sum float64
	for _, v := range res.Components {
		sum += v
	}
	if math.Abs(sum-res.TotalJ) > 1e-9 {
		t.Errorf("components sum %v != total %v", sum, res.TotalJ)
	}
	if !strings.Contains(res.Render(), "accelerometer") {
		t.Error("render missing components")
	}
}

// sweepAt returns the Figure 5 sweep point nearest the budget.
func sweepAt(res *Figure5Result, budget float64) SweepPoint {
	best := res.Points[0]
	for _, p := range res.Points[1:] {
		if math.Abs(p.BudgetJ-budget) < math.Abs(best.BudgetJ-budget) {
			best = p
		}
	}
	return best
}

// figure6At returns the Figure 6 point nearest the budget.
func figure6At(res *Figure6Result, budget float64) Figure6Point {
	best := res.Points[0]
	for _, p := range res.Points[1:] {
		if math.Abs(p.BudgetJ-budget) < math.Abs(best.BudgetJ-budget) {
			best = p
		}
	}
	return best
}

func TestFigure5Experiment(t *testing.T) {
	res, err := Figure5(paperCfg(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 50 {
		t.Fatalf("sweep has only %d points", len(res.Points))
	}
	// Paper claim: at 5 J REAP mixes DP4 ~42% and DP5 ~58%.
	p5 := sweepAt(res, 5.0)
	if math.Abs(p5.Mix[3]-0.42) > 0.03 || math.Abs(p5.Mix[4]-0.58) > 0.03 {
		t.Errorf("5 J mix DP4=%.2f DP5=%.2f, paper 0.42/0.58", p5.Mix[3], p5.Mix[4])
	}
	// REAP accuracy must dominate every static curve everywhere.
	for _, p := range res.Points {
		for i, dp := range p.DPAccuracyPct {
			if dp > p.REAPAccuracyPct+1e-6 {
				t.Fatalf("budget %.2f: DP%d accuracy %.2f beats REAP %.2f",
					p.BudgetJ, i+1, dp, p.REAPAccuracyPct)
			}
		}
	}
	// Region 1: REAP matches DP5's accuracy (the best available).
	p2 := sweepAt(res, 2.0)
	if math.Abs(p2.REAPAccuracyPct-p2.DPAccuracyPct[4]) > 0.5 {
		t.Errorf("region 1: REAP %.2f%% vs DP5 %.2f%%", p2.REAPAccuracyPct, p2.DPAccuracyPct[4])
	}
	// Region 3: REAP reduces to DP1 (94%).
	p10 := sweepAt(res, 10.5)
	if math.Abs(p10.REAPAccuracyPct-94) > 0.5 {
		t.Errorf("region 3 accuracy %.2f%%, want 94%%", p10.REAPAccuracyPct)
	}
	// 5(b): in region 1, REAP active time beats DP1's by >2x somewhere.
	sawBigGain := false
	for _, p := range res.Points {
		if p.Region == core.Region1 && p.DPActiveFrac[0] > 0 &&
			p.REAPActiveFrac/p.DPActiveFrac[0] >= 2.3 {
			sawBigGain = true
			break
		}
	}
	if !sawBigGain {
		t.Error("never observed the paper's 2.3x region-1 active-time gain")
	}
	if !strings.Contains(res.Render(), "Figure 5(b)") {
		t.Error("render missing 5(b) block")
	}
}

func TestFigure6Experiment(t *testing.T) {
	res, err := Figure6(paperCfg(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// All normalized values <= 1 (+eps): REAP dominates at alpha=2.
	for _, p := range res.Points {
		for i, v := range p.DPNormalized {
			if v > 1+1e-9 {
				t.Fatalf("budget %.2f: DP%d normalized %v exceeds 1", p.BudgetJ, i+1, v)
			}
		}
	}
	// Paper: below 6 J, DP4 is the best static point and REAP matches it.
	p4 := figure6At(res, 5.0)
	if p4.DPNormalized[3] < 0.999 {
		t.Errorf("at 5 J DP4/REAP = %v, paper says REAP matches DP4", p4.DPNormalized[3])
	}
	best := 0
	for i, v := range p4.DPNormalized {
		if v > p4.DPNormalized[best] {
			best = i
		}
	}
	if best != 3 {
		t.Errorf("best static at 5 J is DP%d, paper says DP4", best+1)
	}
	// Paper: DP3 reaches REAP parity around 6.5 J.
	p65 := figure6At(res, 6.5)
	if p65.DPNormalized[2] < 0.99 {
		t.Errorf("at 6.5 J DP3/REAP = %v, paper says ~parity", p65.DPNormalized[2])
	}
	// Paper: beyond 9.9 J REAP reduces to DP1.
	p10 := figure6At(res, 10.5)
	if p10.DPNormalized[0] < 0.999 {
		t.Errorf("at 10.5 J DP1/REAP = %v, want 1", p10.DPNormalized[0])
	}
	// DP5's normalized performance is poor at alpha=2 when energy is
	// plentiful (accuracy weighted heavily).
	if p10.DPNormalized[4] > 0.75 {
		t.Errorf("DP5/REAP at 10.5 J = %v, want clearly below REAP", p10.DPNormalized[4])
	}
	if !strings.Contains(res.Render(), "alpha=2") {
		t.Error("render missing alpha")
	}
}

func TestFigureAlphaTrend(t *testing.T) {
	// Section 5.3: "The difference between REAP and DP5 increases further
	// as alpha grows."
	gap := func(alpha float64) float64 {
		res, err := FigureAlpha(paperCfg(), alpha, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		p := figure6At(res, 8.0)
		return 1 - p.DPNormalized[4]
	}
	g2, g4, g8 := gap(2), gap(4), gap(8)
	if !(g2 < g4 && g4 < g8) {
		t.Errorf("DP5 gap not growing with alpha: %v %v %v", g2, g4, g8)
	}
}

func TestFigure7Experiment(t *testing.T) {
	res, err := Figure7(paperCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ratios) != 15 { // 5 alphas x 3 baselines
		t.Fatalf("%d ratios", len(res.Ratios))
	}
	for _, x := range res.Ratios {
		if x.Mean < 1-1e-9 {
			t.Errorf("alpha %g vs %s: mean ratio %v below 1 (REAP must not lose)",
				x.Alpha, x.Baseline, x.Mean)
		}
		if x.Min > x.Mean+1e-9 || x.Max < x.Mean-1e-9 {
			t.Errorf("alpha %g vs %s: min/mean/max inconsistent: %v/%v/%v",
				x.Alpha, x.Baseline, x.Min, x.Mean, x.Max)
		}
	}
	// Trend vs DP1: improvement decreases as alpha grows (paper: 1.6x
	// mean at alpha=0.5 shrinking to 1.1-1.3x at alpha=8).
	lo, _ := res.Ratio("DP1", 0.5)
	hi, _ := res.Ratio("DP1", 8)
	if lo.Mean <= hi.Mean {
		t.Errorf("DP1 improvement did not shrink with alpha: %v -> %v", lo.Mean, hi.Mean)
	}
	if lo.Mean < 1.3 {
		t.Errorf("alpha=0.5 mean improvement over DP1 = %v, paper ~1.6x", lo.Mean)
	}
	// Trend vs DP5: improvement grows with alpha.
	lo5, _ := res.Ratio("DP5", 0.5)
	hi5, _ := res.Ratio("DP5", 8)
	if hi5.Mean <= lo5.Mean {
		t.Errorf("DP5 improvement did not grow with alpha: %v -> %v", lo5.Mean, hi5.Mean)
	}
	// DP3 improvements are the smallest (best-trade-off baseline).
	for _, alpha := range res.Alphas {
		r1, _ := res.Ratio("DP1", alpha)
		r3, _ := res.Ratio("DP3", alpha)
		if alpha <= 1 && r3.Mean > r1.Mean+1e-9 {
			t.Errorf("alpha %g: DP3 ratio %v above DP1 ratio %v", alpha, r3.Mean, r1.Mean)
		}
	}
	if !strings.Contains(res.Render(), "Figure 7") {
		t.Error("render header missing")
	}
}

func TestHeadlineExperiment(t *testing.T) {
	res, err := Headline(paperCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The abstract's 46%/66% are mean gains over the constrained sweep;
	// our reproduction must reach at least those levels somewhere and be
	// of the same order on average.
	if res.MaxAccuracyGainVsDP1 < 0.46 {
		t.Errorf("max accuracy gain %.2f, paper's 46%% unreachable", res.MaxAccuracyGainVsDP1)
	}
	if res.MaxActiveGainVsDP1 < 0.66 {
		t.Errorf("max active gain %.2f, paper's 66%% unreachable", res.MaxActiveGainVsDP1)
	}
	if res.MeanAccuracyGainVsDP1 < 0.2 {
		t.Errorf("mean accuracy gain %.2f implausibly small", res.MeanAccuracyGainVsDP1)
	}
	if res.Region1ActiveRatioVsDP1 < 2.2 {
		t.Errorf("region-1 active ratio %.2f, paper 2.3x", res.Region1ActiveRatioVsDP1)
	}
	// Conclusion: 22-29% higher accuracy than low-power DPs. Our region-2
	// means must be positive and of that order for DP5.
	if res.AccuracyGainVsDP5 < 0.10 || res.AccuracyGainVsDP5 > 0.40 {
		t.Errorf("region-2 gain vs DP5 %.2f outside sanity band", res.AccuracyGainVsDP5)
	}
	if !strings.Contains(res.Render(), "paper") {
		t.Error("render missing paper column")
	}
}

func TestAblationExperiment(t *testing.T) {
	// Use a short deterministic budget trace for speed.
	tr, err := solar.September2015()
	if err != nil {
		t.Fatal(err)
	}
	res, err := AblationOn(paperCfg(), tr.Hours[:240])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	full := res.Rows[len(res.Rows)-1]
	if full.RelativeToFull != 1 {
		t.Fatalf("full set not normalized to 1: %v", full.RelativeToFull)
	}
	for _, row := range res.Rows {
		if row.MeanJ > full.MeanJ+1e-9 {
			t.Errorf("%s beats the full set: %v > %v", row.Name, row.MeanJ, full.MeanJ)
		}
	}
	// The single-DP baselines must be strictly worse than full REAP.
	if res.Rows[0].RelativeToFull > 0.999 {
		t.Errorf("on/off DP1 matches REAP (%v); ablation shows no benefit", res.Rows[0].RelativeToFull)
	}
	// Richer sets are monotonically at least as good.
	if res.Rows[2].MeanJ < res.Rows[0].MeanJ-1e-9 && res.Rows[2].MeanJ < res.Rows[1].MeanJ-1e-9 {
		t.Error("two-point set worse than both single points")
	}
	if !strings.Contains(res.Render(), "REAP") {
		t.Error("render missing")
	}
}

func TestOffloadExperiment(t *testing.T) {
	res, err := Offload()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RawStreamMJ-5.5) > 5.5*0.15 {
		t.Errorf("raw stream %.2f mJ, paper 5.5", res.RawStreamMJ)
	}
	if math.Abs(res.LabelTxMJ-0.38) > 0.38*0.15 {
		t.Errorf("label tx %.2f mJ, paper 0.38", res.LabelTxMJ)
	}
	if res.OffloadTotalMJ <= res.DP1TotalMJ {
		t.Error("offloading not more expensive than DP1")
	}
	if !strings.Contains(res.Render(), "0.38") {
		t.Error("render missing paper values")
	}
}

func TestFigureValidationErrors(t *testing.T) {
	if _, err := Figure5(core.Config{}, 0.1); err == nil {
		t.Error("Figure5 accepted empty config")
	}
	if _, err := Figure6(core.Config{}, 0.1); err == nil {
		t.Error("Figure6 accepted empty config")
	}
	if _, err := Headline(core.Config{}); err == nil {
		t.Error("Headline accepted empty config")
	}
	if _, err := AblationOn(core.Config{}, []float64{1}); err == nil {
		t.Error("Ablation accepted empty config")
	}
}
