package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, _ := New([]int{2, 4, 2}, ReLU, Softmax, rng)
	if _, err := Train(net, nil, nil, TrainConfig{}); err == nil {
		t.Fatal("empty training set accepted")
	}
	bad := []Sample{{X: []float64{1}, Label: 0}}
	if _, err := Train(net, bad, nil, TrainConfig{}); err == nil {
		t.Fatal("wrong sample width accepted")
	}
	badLabel := []Sample{{X: []float64{1, 2}, Label: 5}}
	if _, err := Train(net, badLabel, nil, TrainConfig{}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	linNet, _ := New([]int{2, 2}, ReLU, Linear, rng)
	ok := []Sample{{X: []float64{1, 2}, Label: 0}}
	if _, err := Train(linNet, ok, nil, TrainConfig{}); err == nil {
		t.Fatal("non-softmax output layer accepted")
	}
}

func TestTrainLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, _ := New([]int{2, 8, 2}, Tanh, Softmax, rng)
	var data []Sample
	for i := 0; i < 4; i++ {
		a, b := i&1, i>>1
		data = append(data, Sample{X: []float64{float64(a), float64(b)}, Label: a ^ b})
	}
	// Replicate so batches are meaningful.
	var train []Sample
	for i := 0; i < 50; i++ {
		train = append(train, data...)
	}
	res, err := Train(net, train, nil, TrainConfig{
		Epochs: 200, BatchSize: 8, LearningRate: 0.2, Momentum: 0.9, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(net, data); acc != 1 {
		t.Fatalf("XOR accuracy = %v after %d epochs (loss %v)", acc, res.Epochs, res.FinalLoss)
	}
}

// gaussianBlobs builds a k-class linearly separable dataset.
func gaussianBlobs(rng *rand.Rand, k, perClass int, spread float64) []Sample {
	var samples []Sample
	for c := 0; c < k; c++ {
		ang := 2 * math.Pi * float64(c) / float64(k)
		cx, cy := 3*math.Cos(ang), 3*math.Sin(ang)
		for i := 0; i < perClass; i++ {
			samples = append(samples, Sample{
				X:     []float64{cx + rng.NormFloat64()*spread, cy + rng.NormFloat64()*spread},
				Label: c,
			})
		}
	}
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	return samples
}

func TestTrainSeparableBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	all := gaussianBlobs(rng, 4, 100, 0.4)
	trainSet, valSet := all[:300], all[300:]
	net, _ := New([]int{2, 10, 4}, ReLU, Softmax, rand.New(rand.NewSource(5)))
	res, err := Train(net, trainSet, valSet, TrainConfig{
		Epochs: 100, BatchSize: 16, LearningRate: 0.1, Momentum: 0.9, Seed: 6, Patience: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValAcc < 0.95 {
		t.Fatalf("val accuracy %v on separable blobs, want >= 0.95", res.BestValAcc)
	}
}

func TestEarlyStopping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	all := gaussianBlobs(rng, 3, 60, 0.3)
	trainSet, valSet := all[:120], all[120:]
	net, _ := New([]int{2, 8, 3}, ReLU, Softmax, rand.New(rand.NewSource(8)))
	res, err := Train(net, trainSet, valSet, TrainConfig{
		Epochs: 500, BatchSize: 16, LearningRate: 0.1, Momentum: 0.9, Seed: 9, Patience: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly && res.Epochs == 500 {
		t.Error("500 epochs on an easy problem with patience 5: early stopping never fired")
	}
	if len(res.ValAccHistory) != res.Epochs {
		t.Errorf("history length %d != epochs %d", len(res.ValAccHistory), res.Epochs)
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	all := gaussianBlobs(rng, 3, 40, 0.5)
	run := func() []float64 {
		net, _ := New([]int{2, 6, 3}, ReLU, Softmax, rand.New(rand.NewSource(11)))
		_, err := Train(net, all, nil, TrainConfig{Epochs: 20, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), net.Layers[0].W...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training is not deterministic under fixed seeds")
		}
	}
}

func TestWeightDecayShrinksNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	all := gaussianBlobs(rng, 3, 40, 0.5)
	norm := func(decay float64) float64 {
		net, _ := New([]int{2, 12, 3}, ReLU, Softmax, rand.New(rand.NewSource(14)))
		if _, err := Train(net, all, nil, TrainConfig{
			Epochs: 60, LearningRate: 0.1, WeightDecay: decay, Seed: 15,
		}); err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, l := range net.Layers {
			for _, w := range l.W {
				s += w * w
			}
		}
		return s
	}
	if norm(0.01) >= norm(0) {
		t.Error("weight decay did not shrink the weight norm")
	}
}

func TestAccuracyAndConfusion(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	net, _ := New([]int{2, 2}, ReLU, Softmax, rng)
	// Hand-set weights: class 0 iff x0 > x1.
	net.Layers[0].W = []float64{5, -5, -5, 5}
	net.Layers[0].B = []float64{0, 0}
	samples := []Sample{
		{X: []float64{2, 0}, Label: 0},
		{X: []float64{0, 2}, Label: 1},
		{X: []float64{3, 1}, Label: 1}, // deliberately mislabeled
	}
	if acc := Accuracy(net, samples); !approx(acc, 2.0/3, 1e-12) {
		t.Fatalf("accuracy = %v, want 2/3", acc)
	}
	cm := [2][2]int{}
	for _, s := range samples {
		pred, err := net.Predict(s.X)
		if err != nil {
			t.Fatal(err)
		}
		cm[s.Label][pred]++
	}
	if cm[0][0] != 1 || cm[1][1] != 1 || cm[1][0] != 1 {
		t.Fatalf("confusion matrix %v", cm)
	}
	if Accuracy(net, nil) != 0 {
		t.Fatal("accuracy of empty set should be 0")
	}
}

// crossEntropy is the mean cross-entropy loss of net over samples.
func crossEntropy(t *testing.T, net *Network, samples []Sample) float64 {
	t.Helper()
	var total float64
	for _, s := range samples {
		out, err := net.Forward(s.X)
		if err != nil {
			t.Fatal(err)
		}
		total -= math.Log(math.Max(out[s.Label], 1e-15))
	}
	return total / float64(len(samples))
}

func TestCrossEntropyDecreasesWithTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	all := gaussianBlobs(rng, 3, 50, 0.4)
	net, _ := New([]int{2, 8, 3}, ReLU, Softmax, rand.New(rand.NewSource(18)))
	before := crossEntropy(t, net, all)
	if _, err := Train(net, all, nil, TrainConfig{Epochs: 40, LearningRate: 0.1, Seed: 19}); err != nil {
		t.Fatal(err)
	}
	after := crossEntropy(t, net, all)
	if after >= before {
		t.Fatalf("cross entropy did not decrease: %v -> %v", before, after)
	}
}
