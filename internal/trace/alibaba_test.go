package trace

import (
	"math"
	"testing"

	"hardharvest/internal/stats"
)

func TestCalibrationQuantiles(t *testing.T) {
	rng := stats.NewRNG(42)
	insts := GenerateInstances(rng, 20000)
	// Paper: 50% of instances average below 16.1% utilization.
	below := FractionBelowAvg(insts, 0.161)
	if math.Abs(below-0.50) > 0.03 {
		t.Fatalf("P(avg < 0.161) = %.3f, want ~0.50", below)
	}
	// Paper: 90% of instances peak below 40.7% utilization.
	belowMax := FractionBelowMax(insts, 0.407)
	if math.Abs(belowMax-0.90) > 0.03 {
		t.Fatalf("P(max < 0.407) = %.3f, want ~0.90", belowMax)
	}
}

func TestInstanceInvariants(t *testing.T) {
	rng := stats.NewRNG(7)
	for _, in := range GenerateInstances(rng, 5000) {
		if in.AvgUtil <= 0 || in.AvgUtil > 1 {
			t.Fatalf("avg out of range: %v", in.AvgUtil)
		}
		if in.MaxUtil < in.AvgUtil {
			t.Fatalf("max %v below avg %v", in.MaxUtil, in.AvgUtil)
		}
		if in.MaxUtil > 1 {
			t.Fatalf("max out of range: %v", in.MaxUtil)
		}
	}
}

func TestSeriesMatchesSummary(t *testing.T) {
	rng := stats.NewRNG(9)
	inst := Instance{AvgUtil: 0.15, MaxUtil: 0.6}
	p := DefaultSeriesParams()
	p.Steps = 4000 // long series for tight averages
	series := inst.Series(rng, p)
	avg, max := SummarizeSeries(series)
	if math.Abs(avg-inst.AvgUtil) > 0.05 {
		t.Fatalf("series avg = %.3f, want ~%.2f", avg, inst.AvgUtil)
	}
	if math.Abs(max-inst.MaxUtil) > 0.01 {
		t.Fatalf("series max = %.3f, want ~%.2f", max, inst.MaxUtil)
	}
	for _, v := range series {
		if v < 0 || v > inst.MaxUtil+1e-9 {
			t.Fatalf("series value out of range: %v", v)
		}
	}
}

func TestSeriesHasBursts(t *testing.T) {
	rng := stats.NewRNG(11)
	inst := Instance{AvgUtil: 0.15, MaxUtil: 0.7}
	p := DefaultSeriesParams()
	p.Steps = 1000
	series := inst.Series(rng, p)
	bursts := 0
	for _, v := range series {
		if v == inst.MaxUtil {
			bursts++
		}
	}
	occ := float64(bursts) / float64(len(series))
	want := p.BurstEnter / (p.BurstEnter + p.BurstExit)
	if math.Abs(occ-want) > 0.05 {
		t.Fatalf("burst occupancy = %.3f, want ~%.3f", occ, want)
	}
}

func TestSeriesDegenerateInputs(t *testing.T) {
	rng := stats.NewRNG(12)
	// Max close to avg (base solve would go negative) must stay sane.
	inst := Instance{AvgUtil: 0.02, MaxUtil: 1.0}
	series := inst.Series(rng, DefaultSeriesParams())
	for _, v := range series {
		if v < 0 || v > 1 {
			t.Fatalf("value out of range: %v", v)
		}
	}
	if avg, _ := SummarizeSeries(nil); avg != 0 {
		t.Fatal("empty series summary should be zero")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := GenerateInstances(stats.NewRNG(5), 100)
	b := GenerateInstances(stats.NewRNG(5), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different instances")
		}
	}
}
