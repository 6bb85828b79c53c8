package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantizeValidation(t *testing.T) {
	if _, err := Quantize(&Network{}); err == nil {
		t.Fatal("empty network accepted")
	}
}

func TestQuantizedShapeChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net, _ := New([]int{4, 8, 3}, ReLU, Softmax, rng)
	q, err := Quantize(net)
	if err != nil {
		t.Fatal(err)
	}
	if q.InputSize() != 4 || q.Layers[len(q.Layers)-1].Out != 3 {
		t.Fatalf("sizes %d/%d", q.InputSize(), q.Layers[len(q.Layers)-1].Out)
	}
	if _, err := q.Forward([]float64{1}); err == nil {
		t.Fatal("wrong width accepted")
	}
	if _, err := q.Predict([]float64{1, 2}); err == nil {
		t.Fatal("Predict accepted wrong width")
	}
}

func TestQuantizedTracksFloatOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net, _ := New([]int{6, 10, 4}, Tanh, Softmax, rng)
	q, err := Quantize(net)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, 6)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		fo, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		qo, err := q.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fo {
			if math.Abs(fo[i]-qo[i]) > 0.08 {
				t.Fatalf("trial %d output %d: float %v vs quantized %v", trial, i, fo[i], qo[i])
			}
		}
	}
}

func TestQuantizedAccuracyWithinTwoPoints(t *testing.T) {
	// Train on separable blobs, quantize, and require <= 2 points of
	// accuracy loss — the premise of the int8 design-point variant.
	rng := rand.New(rand.NewSource(43))
	all := gaussianBlobs(rng, 4, 120, 0.5)
	trainSet, testSet := all[:360], all[360:]
	net, _ := New([]int{2, 12, 4}, ReLU, Softmax, rand.New(rand.NewSource(44)))
	if _, err := Train(net, trainSet, nil, TrainConfig{
		Epochs: 80, LearningRate: 0.1, Momentum: 0.9, Seed: 45,
	}); err != nil {
		t.Fatal(err)
	}
	q, err := Quantize(net)
	if err != nil {
		t.Fatal(err)
	}
	floatAcc := Accuracy(net, testSet)
	qAcc := QuantizedAccuracy(q, testSet)
	if floatAcc-qAcc > 0.02 {
		t.Fatalf("quantization lost %.3f accuracy (float %.3f, int8 %.3f)",
			floatAcc-qAcc, floatAcc, qAcc)
	}
	if QuantizedAccuracy(q, nil) != 0 {
		t.Fatal("empty set accuracy should be 0")
	}
}

func TestQuantizeConstantLayer(t *testing.T) {
	// All-zero weights: scales must not be zero (division guard).
	net := &Network{Layers: []*Layer{{
		In: 2, Out: 2, Act: Softmax,
		W: make([]float64, 4), B: make([]float64, 2),
	}}}
	q, err := Quantize(net)
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.Forward([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(out[0]) {
		t.Fatal("NaN from constant layer")
	}
}

func TestQuantizedWeightsAreInt8Symmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	net, _ := New([]int{3, 5, 2}, ReLU, Softmax, rng)
	// Inject an extreme weight to exercise clamping.
	net.Layers[0].W[0] = 10
	q, err := Quantize(net)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range q.Layers {
		for _, w := range l.W {
			if w < -127 || w > 127 {
				t.Fatalf("weight %d outside symmetric int8 range", w)
			}
		}
	}
	// The extreme weight maps to +127 exactly.
	if q.Layers[0].W[0] != 127 {
		t.Fatalf("max weight quantized to %d, want 127", q.Layers[0].W[0])
	}
}
