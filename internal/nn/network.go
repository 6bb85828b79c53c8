// Package nn implements the feed-forward neural network classifier used by
// the HAR design points. The paper's prototype runs small parameterized
// multi-layer perceptrons (structures 4×12×7, 4×8×7 and 4×7, i.e. up to
// one hidden layer of 12 or 8 units over 7 activity classes); this package
// generalizes to arbitrary layer stacks while keeping a MAC-count cost
// model so the energy package can price inference per design point.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Activation selects the nonlinearity of a dense layer.
type Activation int

const (
	// Linear applies no nonlinearity.
	Linear Activation = iota
	// ReLU applies max(0, x).
	ReLU
	// Sigmoid applies the logistic function.
	Sigmoid
	// Tanh applies the hyperbolic tangent.
	Tanh
	// Softmax normalizes the layer outputs into a distribution; only
	// meaningful on the final layer, paired with cross-entropy loss.
	Softmax
)

// String returns the activation's name.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case Softmax:
		return "softmax"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// Layer is one dense (fully connected) layer: y = act(Wx + b).
type Layer struct {
	In, Out int
	Act     Activation
	// W is row-major: W[o*In+i] weights input i into output o.
	W []float64
	B []float64
}

// Network is a stack of dense layers.
type Network struct {
	Layers []*Layer
}

// ErrShape indicates inconsistent layer dimensions.
var ErrShape = errors.New("nn: inconsistent layer shape")

// New builds a network from a layer-size spec: sizes[0] is the input
// width, sizes[len-1] the output width. Hidden layers use hiddenAct, the
// final layer uses outAct. Weights use Xavier/Glorot uniform initialization
// from rng, so construction is deterministic given the seed.
func New(sizes []int, hiddenAct, outAct Activation, rng *rand.Rand) (*Network, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("%w: need at least input and output sizes, got %v", ErrShape, sizes)
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("%w: non-positive layer size in %v", ErrShape, sizes)
		}
	}
	net := &Network{}
	for l := 0; l+1 < len(sizes); l++ {
		act := hiddenAct
		if l+2 == len(sizes) {
			act = outAct
		}
		layer := &Layer{
			In:  sizes[l],
			Out: sizes[l+1],
			Act: act,
			W:   make([]float64, sizes[l]*sizes[l+1]),
			B:   make([]float64, sizes[l+1]),
		}
		// Xavier/Glorot uniform: U(-lim, lim), lim = sqrt(6/(in+out)).
		lim := math.Sqrt(6 / float64(layer.In+layer.Out))
		for i := range layer.W {
			layer.W[i] = (rng.Float64()*2 - 1) * lim
		}
		net.Layers = append(net.Layers, layer)
	}
	return net, nil
}

// InputSize returns the expected feature-vector width.
func (n *Network) InputSize() int { return n.Layers[0].In }

// OutputSize returns the number of classes.
func (n *Network) OutputSize() int { return n.Layers[len(n.Layers)-1].Out }

// Forward runs inference and returns the output activations. The input is
// not modified.
func (n *Network) Forward(x []float64) ([]float64, error) {
	if len(x) != n.InputSize() {
		return nil, fmt.Errorf("%w: input width %d, network expects %d", ErrShape, len(x), n.InputSize())
	}
	cur := x
	for _, l := range n.Layers {
		cur = l.forward(cur, nil)
	}
	return cur, nil
}

// Predict returns the argmax class of Forward.
func (n *Network) Predict(x []float64) (int, error) {
	out, err := n.Forward(x)
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

// forward computes the layer output; if pre is non-nil it also receives the
// pre-activation values (needed by backprop).
func (l *Layer) forward(x []float64, pre []float64) []float64 {
	z := make([]float64, l.Out)
	for o := 0; o < l.Out; o++ {
		s := l.B[o]
		row := l.W[o*l.In : (o+1)*l.In]
		for i, v := range x {
			s += row[i] * v
		}
		z[o] = s
	}
	if pre != nil {
		copy(pre, z)
	}
	return applyActivation(l.Act, z)
}

// applyActivation applies act to z in place and returns it.
func applyActivation(act Activation, z []float64) []float64 {
	switch act {
	case Linear:
	case ReLU:
		for i, v := range z {
			if v < 0 {
				z[i] = 0
			}
		}
	case Sigmoid:
		for i, v := range z {
			z[i] = 1 / (1 + math.Exp(-v))
		}
	case Tanh:
		for i, v := range z {
			z[i] = math.Tanh(v)
		}
	case Softmax:
		max := z[0]
		for _, v := range z[1:] {
			if v > max {
				max = v
			}
		}
		var sum float64
		for i, v := range z {
			z[i] = math.Exp(v - max)
			sum += z[i]
		}
		for i := range z {
			z[i] /= sum
		}
	}
	return z
}

// activationDerivFromOutput returns dact/dz given the activation OUTPUT a
// (valid for the element-wise activations; softmax is handled jointly with
// cross-entropy in the trainer).
func activationDerivFromOutput(act Activation, a float64) float64 {
	switch act {
	case Linear:
		return 1
	case ReLU:
		if a > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return a * (1 - a)
	case Tanh:
		return 1 - a*a
	default:
		return 1
	}
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	out := &Network{}
	for _, l := range n.Layers {
		out.Layers = append(out.Layers, &Layer{
			In:  l.In,
			Out: l.Out,
			Act: l.Act,
			W:   append([]float64(nil), l.W...),
			B:   append([]float64(nil), l.B...),
		})
	}
	return out
}
