package resilience

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestGoRecoversPanics(t *testing.T) {
	type report struct {
		name string
		rec  any
	}
	got := make(chan report, 1)
	Go("boomer", func(name string, r any) { got <- report{name, r} }, func() {
		panic("boom")
	})
	select {
	case r := <-got:
		if r.name != "boomer" || r.rec != "boom" {
			t.Errorf("onPanic got (%q, %v), want (boomer, boom)", r.name, r.rec)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("panic not delivered to onPanic")
	}

	// A nil observer must not crash the process.
	done := make(chan struct{})
	Go("silent", nil, func() { defer close(done); panic("ignored") })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("goroutine with nil observer did not run")
	}
}

func TestBreakerQuarantinesAtThreshold(t *testing.T) {
	b := NewBreaker(3)
	for i := 0; i < 2; i++ {
		if b.RecordPanic() {
			t.Fatalf("quarantined after %d panics, threshold 3", i+1)
		}
	}
	if b.Quarantined() {
		t.Fatal("quarantined below threshold")
	}
	if !b.RecordPanic() || !b.Quarantined() {
		t.Fatal("not quarantined at threshold")
	}
	if n := b.panics.Load(); n != 3 {
		t.Errorf("panics = %d, want 3", n)
	}

	off := NewBreaker(0)
	for i := 0; i < 100; i++ {
		off.RecordPanic()
	}
	if off.Quarantined() {
		t.Error("threshold 0 must never quarantine")
	}
	if n := off.panics.Load(); n != 100 {
		t.Errorf("disabled breaker still counts: panics = %d, want 100", n)
	}
}

func TestGateShedsOverMax(t *testing.T) {
	g := NewGate(2)
	if !g.Enter() || !g.Enter() {
		t.Fatal("gate refused entries within capacity")
	}
	if g.Enter() {
		t.Fatal("gate admitted over capacity")
	}
	if g.Shed() != 1 {
		t.Errorf("shed = %d, want 1", g.Shed())
	}
	g.Leave()
	if !g.Enter() {
		t.Error("gate refused after a slot freed")
	}

	unlimited := NewGate(0)
	for i := 0; i < 10; i++ {
		if !unlimited.Enter() {
			t.Fatal("unlimited gate shed a request")
		}
	}
	if unlimited.Shed() != 0 {
		t.Errorf("unlimited gate shed = %d, want 0", unlimited.Shed())
	}
}

func TestGateUnderConcurrency(t *testing.T) {
	g := NewGate(4)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g.Enter() {
				time.Sleep(time.Millisecond)
				g.Leave()
			}
		}()
	}
	wg.Wait()
	if n := g.inflight.Load(); n != 0 {
		t.Errorf("inflight = %d after all leave, want 0", n)
	}
}

func TestDeadlinePolicyTimeout(t *testing.T) {
	p := DeadlinePolicy{Default: 200 * time.Millisecond, Max: time.Second}
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", 200 * time.Millisecond},       // absent → default
		{"50", 50 * time.Millisecond},      // within max
		{"5000", time.Second},              // capped by policy
		{"0", 200 * time.Millisecond},      // non-positive → default
		{"-3", 200 * time.Millisecond},     // negative → default
		{"banana", 200 * time.Millisecond}, // unparseable → default
		{"1000000", time.Second},           // huge → capped
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		if tc.header != "" {
			r.Header.Set(DeadlineHeader, tc.header)
		}
		if got := p.Timeout(r); got != tc.want {
			t.Errorf("header %q: timeout = %v, want %v", tc.header, got, tc.want)
		}
	}

	// No policy, no header → context passes through with no deadline.
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	ctx, cancel := DeadlinePolicy{}.Context(r)
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Error("zero policy set a deadline")
	}

	// Header under a Max-only policy (Default 0) is honored.
	r = httptest.NewRequest(http.MethodGet, "/", nil)
	r.Header.Set(DeadlineHeader, "25")
	maxOnly := DeadlinePolicy{Max: time.Second}
	if got := maxOnly.Timeout(r); got != 25*time.Millisecond {
		t.Errorf("max-only policy: timeout = %v, want 25ms", got)
	}
	ctx, cancel = maxOnly.Context(r)
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Error("max-only policy with header set no deadline")
	}
}

func TestChaosDeterministicSequence(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, PanicP: 0.5}
	seq := func() []bool {
		c := NewChaos(cfg)
		var out []bool
		for i := 0; i < 32; i++ {
			_, p, _ := c.roll()
			out = append(out, p)
		}
		return out
	}
	a, b := seq(), seq()
	anyFired := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identically seeded runs", i)
		}
		anyFired = anyFired || a[i]
	}
	if !anyFired {
		t.Error("PanicP=0.5 over 32 rolls never fired")
	}
	if NewChaos(ChaosConfig{}) != nil {
		t.Error("zero config must disable chaos")
	}
}

func TestChaosPanicInjection(t *testing.T) {
	c := NewChaos(ChaosConfig{Seed: 1, PanicP: 1})
	h := c.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler ran despite injected panic")
	}))
	rec := func() (recovered any) {
		defer func() { recovered = recover() }()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
		return nil
	}()
	if rec == nil {
		t.Fatal("injected panic did not propagate")
	}
	if _, p, _ := c.Injected(); p != 1 {
		t.Errorf("injected panics = %d, want 1", p)
	}
}

func TestChaosTornConnection(t *testing.T) {
	c := NewChaos(ChaosConfig{Seed: 1, TearP: 1})
	srv := httptest.NewServer(c.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler ran despite torn connection")
	})))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("want transport error from torn connection, got status %d", resp.StatusCode)
	}
	if _, _, tears := c.Injected(); tears != 1 {
		t.Errorf("injected tears = %d, want 1", tears)
	}
}

func TestChaosLatency(t *testing.T) {
	c := NewChaos(ChaosConfig{Seed: 1, LatencyP: 1, Latency: 30 * time.Millisecond})
	var ran bool
	h := c.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { ran = true }))
	t0 := time.Now()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	if !ran {
		t.Fatal("handler did not run")
	}
	if d := time.Since(t0); d < 30*time.Millisecond {
		t.Errorf("request took %v, want >= 30ms injected latency", d)
	}
}
