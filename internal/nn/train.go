package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Sample is one labeled training example.
type Sample struct {
	X     []float64
	Label int
}

// TrainConfig controls SGD training.
type TrainConfig struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the mini-batch size; values below 1 default to 16.
	BatchSize int
	// LearningRate is the SGD step size; values <= 0 default to 0.05.
	LearningRate float64
	// Momentum is the classical momentum coefficient in [0,1).
	Momentum float64
	// WeightDecay is the L2 regularization coefficient.
	WeightDecay float64
	// Seed drives shuffling, making training deterministic.
	Seed int64
	// Patience stops training after this many epochs without validation
	// improvement; zero disables early stopping.
	Patience int
}

// TrainResult reports the outcome of a training run.
type TrainResult struct {
	Epochs        int
	FinalLoss     float64
	BestValAcc    float64
	StoppedEarly  bool
	ValAccHistory []float64
}

// Train fits the network to train with softmax/cross-entropy loss,
// optionally early-stopping on val accuracy. The final layer must use the
// Softmax activation.
func Train(net *Network, train, val []Sample, cfg TrainConfig) (TrainResult, error) {
	if len(train) == 0 {
		return TrainResult{}, fmt.Errorf("nn: empty training set")
	}
	last := net.Layers[len(net.Layers)-1]
	if last.Act != Softmax {
		return TrainResult{}, fmt.Errorf("nn: Train requires a softmax output layer, got %v", last.Act)
	}
	for _, s := range train {
		if len(s.X) != net.InputSize() {
			return TrainResult{}, fmt.Errorf("%w: sample width %d, network expects %d",
				ErrShape, len(s.X), net.InputSize())
		}
		if s.Label < 0 || s.Label >= net.OutputSize() {
			return TrainResult{}, fmt.Errorf("nn: label %d outside [0,%d)", s.Label, net.OutputSize())
		}
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 16
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.05
	}
	if cfg.Epochs < 1 {
		cfg.Epochs = 50
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(train))
	vel := newGradBuffer(net)
	grad := newGradBuffer(net)

	var res TrainResult
	best := net.Clone()
	bestVal := -1.0
	sinceBest := 0

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Reshuffle each epoch.
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			grad.zero()
			for _, idx := range order[start:end] {
				s := train[idx]
				epochLoss += backprop(net, s, grad)
			}
			scale := 1 / float64(end-start)
			applyGradients(net, grad, vel, cfg, scale)
		}
		res.Epochs = epoch + 1
		res.FinalLoss = epochLoss / float64(len(train))

		if len(val) > 0 {
			acc := Accuracy(net, val)
			res.ValAccHistory = append(res.ValAccHistory, acc)
			if acc > bestVal {
				bestVal = acc
				best = net.Clone()
				sinceBest = 0
			} else {
				sinceBest++
				if cfg.Patience > 0 && sinceBest >= cfg.Patience {
					res.StoppedEarly = true
					break
				}
			}
		}
	}
	if bestVal >= 0 {
		// Restore the best validation snapshot.
		for i, l := range best.Layers {
			copy(net.Layers[i].W, l.W)
			copy(net.Layers[i].B, l.B)
		}
		res.BestValAcc = bestVal
	}
	return res, nil
}

// gradBuffer mirrors the network's parameter shapes.
type gradBuffer struct {
	w [][]float64
	b [][]float64
}

func newGradBuffer(net *Network) *gradBuffer {
	g := &gradBuffer{}
	for _, l := range net.Layers {
		g.w = append(g.w, make([]float64, len(l.W)))
		g.b = append(g.b, make([]float64, len(l.B)))
	}
	return g
}

func (g *gradBuffer) zero() {
	for i := range g.w {
		for j := range g.w[i] {
			g.w[i][j] = 0
		}
		for j := range g.b[i] {
			g.b[i][j] = 0
		}
	}
}

// backprop accumulates the gradient of the cross-entropy loss for sample s
// into grad and returns the loss value.
func backprop(net *Network, s Sample, grad *gradBuffer) float64 {
	L := len(net.Layers)
	// Forward pass, keeping activations.
	acts := make([][]float64, L+1)
	acts[0] = s.X
	for i, l := range net.Layers {
		acts[i+1] = l.forward(acts[i], nil)
	}
	out := acts[L]
	p := out[s.Label]
	if p < 1e-15 {
		p = 1e-15
	}
	loss := -math.Log(p)

	// Output delta for softmax + cross-entropy: p - onehot.
	delta := append([]float64(nil), out...)
	delta[s.Label] -= 1

	for li := L - 1; li >= 0; li-- {
		l := net.Layers[li]
		in := acts[li]
		// For hidden layers the delta arriving here is dL/da; convert to
		// dL/dz with the activation derivative. The softmax output layer
		// already holds dL/dz.
		if li != L-1 {
			for o := range delta {
				delta[o] *= activationDerivFromOutput(l.Act, acts[li+1][o])
			}
		}
		gw, gb := grad.w[li], grad.b[li]
		for o := 0; o < l.Out; o++ {
			d := delta[o]
			gb[o] += d
			row := gw[o*l.In : (o+1)*l.In]
			for i, v := range in {
				row[i] += d * v
			}
		}
		if li > 0 {
			prev := make([]float64, l.In)
			for o := 0; o < l.Out; o++ {
				d := delta[o]
				row := l.W[o*l.In : (o+1)*l.In]
				for i := range prev {
					prev[i] += d * row[i]
				}
			}
			delta = prev
		}
	}
	return loss
}

// applyGradients performs one SGD-with-momentum step.
func applyGradients(net *Network, grad, vel *gradBuffer, cfg TrainConfig, scale float64) {
	lr := cfg.LearningRate
	for li, l := range net.Layers {
		gw, gb := grad.w[li], grad.b[li]
		vw, vb := vel.w[li], vel.b[li]
		for j := range l.W {
			g := gw[j]*scale + cfg.WeightDecay*l.W[j]
			vw[j] = cfg.Momentum*vw[j] - lr*g
			l.W[j] += vw[j]
		}
		for j := range l.B {
			vb[j] = cfg.Momentum*vb[j] - lr*gb[j]*scale
			l.B[j] += vb[j]
		}
	}
}

// Accuracy returns the fraction of samples the network classifies
// correctly.
func Accuracy(net *Network, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if pred, err := net.Predict(s.X); err == nil && pred == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}
