package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := New([]int{4}, ReLU, Softmax, rng); err == nil {
		t.Fatal("single-size spec accepted")
	}
	if _, err := New([]int{4, 0, 7}, ReLU, Softmax, rng); err == nil {
		t.Fatal("zero layer size accepted")
	}
	net, err := New([]int{4, 12, 7}, ReLU, Softmax, rng)
	if err != nil {
		t.Fatal(err)
	}
	if net.InputSize() != 4 || net.OutputSize() != 7 {
		t.Fatalf("sizes %d/%d", net.InputSize(), net.OutputSize())
	}
	if len(net.Layers) != 2 || net.Layers[0].Out != 12 || net.Layers[1].In != 12 {
		t.Fatalf("hidden layer not 12 wide: %+v", net.Layers)
	}
}

func TestPaperStructures(t *testing.T) {
	// The paper's classifier structures: 4×12×7, 4×8×7 and 4×7.
	rng := rand.New(rand.NewSource(2))
	specs := [][]int{{4, 12, 7}, {4, 8, 7}, {4, 7}}
	for _, spec := range specs {
		net, err := New(spec, ReLU, Softmax, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(net.Layers) != len(spec)-1 {
			t.Fatalf("spec %v: %d layers", spec, len(net.Layers))
		}
		for i, l := range net.Layers {
			if l.In != spec[i] || l.Out != spec[i+1] || len(l.W) != l.In*l.Out || len(l.B) != l.Out {
				t.Errorf("spec %v layer %d: %d→%d with %d weights and %d biases",
					spec, i, l.In, l.Out, len(l.W), len(l.B))
			}
		}
	}
}

func TestForwardShapeCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, _ := New([]int{4, 7}, ReLU, Softmax, rng)
	if _, err := net.Forward([]float64{1, 2}); err == nil {
		t.Fatal("wrong input width accepted")
	}
	if _, err := net.Predict([]float64{1, 2, 3}); err == nil {
		t.Fatal("Predict accepted wrong width")
	}
}

func TestSoftmaxOutputIsDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net, _ := New([]int{5, 9, 7}, Tanh, Softmax, rng)
	x := []float64{0.3, -1.2, 4.0, 0.0, 2.2}
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range out {
		if v < 0 || v > 1 {
			t.Fatalf("softmax output %v outside [0,1]", v)
		}
		sum += v
	}
	if !approx(sum, 1, 1e-9) {
		t.Fatalf("softmax sum = %v", sum)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	z := applyActivation(Softmax, []float64{1000, 1000, 1000})
	for _, v := range z {
		if !approx(v, 1.0/3, 1e-9) {
			t.Fatalf("softmax of equal large logits = %v", z)
		}
	}
	z = applyActivation(Softmax, []float64{-1000, 0})
	if !approx(z[1], 1, 1e-9) {
		t.Fatalf("softmax with extreme gap = %v", z)
	}
}

func TestActivations(t *testing.T) {
	if got := applyActivation(ReLU, []float64{-2, 0, 3})[0]; got != 0 {
		t.Error("ReLU(-2) != 0")
	}
	if got := applyActivation(Sigmoid, []float64{0})[0]; !approx(got, 0.5, 1e-12) {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	if got := applyActivation(Tanh, []float64{0})[0]; got != 0 {
		t.Errorf("Tanh(0) = %v", got)
	}
	if got := applyActivation(Linear, []float64{3.5})[0]; got != 3.5 {
		t.Errorf("Linear(3.5) = %v", got)
	}
	for _, a := range []Activation{Linear, ReLU, Sigmoid, Tanh, Softmax, Activation(99)} {
		if a.String() == "" {
			t.Errorf("empty name for %d", int(a))
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	a, _ := New([]int{4, 8, 7}, ReLU, Softmax, rand.New(rand.NewSource(42)))
	b, _ := New([]int{4, 8, 7}, ReLU, Softmax, rand.New(rand.NewSource(42)))
	for li := range a.Layers {
		for j := range a.Layers[li].W {
			if a.Layers[li].W[j] != b.Layers[li].W[j] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, _ := New([]int{3, 5, 2}, ReLU, Softmax, rng)
	b := a.Clone()
	b.Layers[0].W[0] += 1
	if a.Layers[0].W[0] == b.Layers[0].W[0] {
		t.Fatal("Clone aliases weights")
	}
}

func TestGradientCheck(t *testing.T) {
	// Numerical gradient check of backprop through a 2-layer net.
	rng := rand.New(rand.NewSource(6))
	net, _ := New([]int{3, 4, 3}, Tanh, Softmax, rng)
	s := Sample{X: []float64{0.5, -0.3, 0.8}, Label: 2}

	grad := newGradBuffer(net)
	backprop(net, s, grad)

	loss := func() float64 {
		out, _ := net.Forward(s.X)
		return -math.Log(out[s.Label])
	}
	const h = 1e-6
	for li, l := range net.Layers {
		for j := range l.W {
			orig := l.W[j]
			l.W[j] = orig + h
			up := loss()
			l.W[j] = orig - h
			down := loss()
			l.W[j] = orig
			numeric := (up - down) / (2 * h)
			if !approx(grad.w[li][j], numeric, 1e-4*(1+math.Abs(numeric))) {
				t.Fatalf("layer %d W[%d]: backprop %v vs numeric %v", li, j, grad.w[li][j], numeric)
			}
		}
		for j := range l.B {
			orig := l.B[j]
			l.B[j] = orig + h
			up := loss()
			l.B[j] = orig - h
			down := loss()
			l.B[j] = orig
			numeric := (up - down) / (2 * h)
			if !approx(grad.b[li][j], numeric, 1e-4*(1+math.Abs(numeric))) {
				t.Fatalf("layer %d B[%d]: backprop %v vs numeric %v", li, j, grad.b[li][j], numeric)
			}
		}
	}
}

func TestGradientCheckReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, _ := New([]int{2, 6, 2}, ReLU, Softmax, rng)
	s := Sample{X: []float64{1.3, -0.7}, Label: 0}
	grad := newGradBuffer(net)
	backprop(net, s, grad)
	loss := func() float64 {
		out, _ := net.Forward(s.X)
		return -math.Log(out[s.Label])
	}
	const h = 1e-6
	for li, l := range net.Layers {
		for j := range l.W {
			orig := l.W[j]
			l.W[j] = orig + h
			up := loss()
			l.W[j] = orig - h
			down := loss()
			l.W[j] = orig
			numeric := (up - down) / (2 * h)
			// ReLU kinks can make individual comparisons off; allow a
			// looser tolerance and skip near-kink points.
			if math.Abs(numeric-grad.w[li][j]) > 1e-3*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d W[%d]: backprop %v vs numeric %v", li, j, grad.w[li][j], numeric)
			}
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net, _ := New([]int{4, 12, 7}, ReLU, Softmax, rng)
	data, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3, 0.4}
	a, _ := net.Forward(x)
	b, _ := back.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output mismatch after round trip: %v vs %v", a, b)
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{"layers":[]}`,
		`{"layers":[{"in":0,"out":2,"act":0,"w":[],"b":[]}]}`,
		`{"layers":[{"in":2,"out":2,"act":0,"w":[1,2,3],"b":[0,0]}]}`,
		`{"layers":[{"in":2,"out":2,"act":0,"w":[1,2,3,4],"b":[0]}]}`,
		`{"layers":[{"in":2,"out":2,"act":0,"w":[1,2,3,4],"b":[0,0]},{"in":3,"out":1,"act":4,"w":[1,2,3],"b":[0]}]}`,
		`not json`,
	}
	for i, c := range cases {
		var net Network
		if err := json.Unmarshal([]byte(c), &net); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}
