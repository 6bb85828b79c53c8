package nn

import (
	"fmt"
	"math"

	"repro/internal/fpx"
)

// QuantizedNetwork is an int8 post-training quantization of a Network:
// weights and biases are stored as 8-bit integers with one scale per
// layer, and inference accumulates in int32 — the arithmetic a CC2650-
// class MCU does natively, roughly 4x cheaper per MAC than software
// floating point. Activations stay in float64 between layers (per-layer
// dynamic quantization), which keeps the scheme simple while capturing
// the accuracy cost of 8-bit weights.
type QuantizedNetwork struct {
	Layers []*QuantizedLayer
}

// QuantizedLayer mirrors Layer with int8 parameters.
type QuantizedLayer struct {
	In, Out int
	Act     Activation
	// Scale converts stored int8 weights back to the float domain:
	// w ≈ float64(W[i]) * Scale.
	Scale float64
	// BScale is the bias scale (biases are quantized separately; their
	// dynamic range differs from the weights').
	BScale float64
	W      []int8
	B      []int8
}

// Quantize converts a trained network to int8 with symmetric per-layer
// scaling.
func Quantize(n *Network) (*QuantizedNetwork, error) {
	if len(n.Layers) == 0 {
		return nil, fmt.Errorf("nn: quantizing an empty network")
	}
	q := &QuantizedNetwork{}
	for _, l := range n.Layers {
		ql := &QuantizedLayer{
			In: l.In, Out: l.Out, Act: l.Act,
			W: make([]int8, len(l.W)),
			B: make([]int8, len(l.B)),
		}
		ql.Scale = maxAbs(l.W) / 127
		ql.BScale = maxAbs(l.B) / 127
		if fpx.Zero(ql.Scale) {
			ql.Scale = 1
		}
		if fpx.Zero(ql.BScale) {
			ql.BScale = 1
		}
		for i, w := range l.W {
			ql.W[i] = clampInt8(math.Round(w / ql.Scale))
		}
		for i, b := range l.B {
			ql.B[i] = clampInt8(math.Round(b / ql.BScale))
		}
		q.Layers = append(q.Layers, ql)
	}
	return q, nil
}

func maxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func clampInt8(v float64) int8 {
	if v > 127 {
		return 127
	}
	if v < -127 {
		return -127
	}
	return int8(v)
}

// InputSize returns the expected feature width.
func (q *QuantizedNetwork) InputSize() int { return q.Layers[0].In }

// Forward runs quantized inference: per layer, the input is dynamically
// quantized to int8 against its own max, the dot products accumulate in
// int32, and the result is rescaled to float for the activation.
func (q *QuantizedNetwork) Forward(x []float64) ([]float64, error) {
	if len(x) != q.InputSize() {
		return nil, fmt.Errorf("%w: input width %d, network expects %d",
			ErrShape, len(x), q.InputSize())
	}
	cur := x
	for _, l := range q.Layers {
		// Dynamic input quantization.
		inScale := maxAbs(cur) / 127
		if fpx.Zero(inScale) {
			inScale = 1
		}
		qin := make([]int8, len(cur))
		for i, v := range cur {
			qin[i] = clampInt8(math.Round(v / inScale))
		}
		out := make([]float64, l.Out)
		for o := 0; o < l.Out; o++ {
			var acc int32
			row := l.W[o*l.In : (o+1)*l.In]
			for i := range qin {
				acc += int32(row[i]) * int32(qin[i])
			}
			out[o] = float64(acc)*l.Scale*inScale + float64(l.B[o])*l.BScale
		}
		cur = applyActivation(l.Act, out)
	}
	return cur, nil
}

// Predict returns the argmax class of Forward.
func (q *QuantizedNetwork) Predict(x []float64) (int, error) {
	out, err := q.Forward(x)
	if err != nil {
		return 0, err
	}
	best, bestV := 0, out[0]
	for i, v := range out[1:] {
		if v > bestV {
			bestV = v
			best = i + 1
		}
	}
	return best, nil
}

// QuantizedAccuracy evaluates the quantized network on labeled samples.
func QuantizedAccuracy(q *QuantizedNetwork, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if pred, err := q.Predict(s.X); err == nil && pred == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}
