package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	reap "repro"
	"repro/internal/service"
	"repro/wire"
)

const (
	ingestReqPerSec = 3500
	daemonShards    = 8    // reapd's default partition of the fleet
	snapshotEvery   = 4096 // reapd's default -snapshot-every
	followerID      = "perfbench"
)

// ackBody is the exact response to a fully accepted 64-report batch.
var ackBody = []byte(`{"v":1,"accepted":64}` + "\n")

// makeIngestBodies splits a random permutation of the whole fleet into
// batches of 64 devices, each sorted as a gateway sends it, with
// consumption in [0, 2) J. One pass over the bodies reports every device
// once, so the working set is the whole fleet, not a cached subset.
func makeIngestBodies(seed int64) ([]reqBody, float64) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(daemonDevices)
	bodies := make([]reqBody, daemonDevices/batchItems)
	shards := 0
	for k := range bodies {
		reps := make([]wire.DeviceReport, batchItems)
		for i, dev := range perm[k*batchItems : (k+1)*batchItems] {
			reps[i] = wire.DeviceReport{Device: dev, ConsumedJ: 2 * rng.Float64()}
		}
		sort.Slice(reps, func(i, j int) bool { return reps[i].Device < reps[j].Device })
		touched := map[int]bool{}
		for _, rep := range reps {
			touched[rep.Device*daemonShards/daemonDevices] = true
		}
		shards += len(touched)
		raw, err := json.Marshal(&wire.ReportRequest{V: wire.Version, Reports: reps})
		if err != nil {
			panic(err) // plain structs of finite floats always encode
		}
		bodies[k] = reqBody{raw: raw, ops: batchItems}
	}
	return bodies, float64(shards) / float64(len(bodies))
}

func ackCheck(_ int, resp []byte) int {
	if bytes.Equal(resp, ackBody) {
		return 0
	}
	return batchItems
}

// replicaPair is a journaled primary and the follower tailing it.
type replicaPair struct {
	primary, follower *daemon
	dirs              []string
}

func (r *run) startPair(c *http.Client) (*replicaPair, error) {
	rp := &replicaPair{}
	for _, role := range []string{"primary", "follower"} {
		dir, err := os.MkdirTemp(r.outDir, "journal-"+role+"-")
		if err != nil {
			return nil, err
		}
		rp.dirs = append(rp.dirs, dir)
	}
	devs := strconv.Itoa(daemonDevices)
	var err error
	if rp.primary, err = r.startDaemon("primary", "-addr", "127.0.0.1:0", "-devices", devs, "-journal", rp.dirs[0]); err != nil {
		return nil, err
	}
	if rp.follower, err = r.startDaemon("follower", "-addr", "127.0.0.1:0", "-devices", devs, "-journal", rp.dirs[1],
		"-role", "follower", "-primary", rp.primary.addr, "-follower-id", followerID); err != nil {
		return nil, err
	}
	for _, d := range []*daemon{rp.primary, rp.follower} {
		if err := waitHealthy(c, d); err != nil {
			return nil, err
		}
	}
	return rp, waitAttached(func() (*wire.StatsResponse, error) { return stats(c, rp.primary) })
}

// waitAttached waits until the primary reports a live follower stream.
func waitAttached(st func() (*wire.StatsResponse, error)) error {
	return waitFor("follower attachment", 60*time.Second, func() (bool, error) {
		s, err := st()
		if err != nil || s.Replication == nil {
			return false, err
		}
		for _, f := range s.Replication.Followers {
			if f.ID == followerID && f.Live {
				return true, nil
			}
		}
		return false, nil
	})
}

func (rp *replicaPair) stop() error {
	err := rp.follower.stop()
	if perr := rp.primary.stop(); err == nil {
		err = perr
	}
	for _, d := range rp.dirs {
		os.RemoveAll(d)
	}
	return err
}

func (r *run) runIngest() error {
	bodies, shardsPerBatch := makeIngestBodies(r.seed)
	n := r.seconds * ingestReqPerSec
	r.diag["workload"] = map[string]any{
		"daemon_devices": daemonDevices, "batch_reports": batchItems, "distinct_bodies": len(bodies),
		"shards_touched_per_batch": shardsPerBatch, "req_bytes_per_op": meanBytes(bodies) / batchItems,
		"resp_bytes_per_op": float64(len(ackBody)) / batchItems, "requests": n, "connections": 2,
		"fsync": "interval (default)", "snapshot_every": snapshotEvery, "devices_per_pass": len(bodies) * batchItems,
	}

	c := newClient()
	defer c.CloseIdleConnections()
	var appended, compactions, reqs, acked int64
	var followerCPU time.Duration
	phases, err := r.runDaemon("/v1/report", bodies, n, ackCheck, false, func() (*deployment, error) {
		rp, err := r.startPair(c)
		if err != nil {
			return nil, err
		}
		var before *wire.StatsResponse
		var fcpu0 time.Duration
		dep := &deployment{target: rp.primary, daemons: []*daemon{rp.primary, rp.follower}, stop: rp.stop}
		// The warm-up's appends make one snapshot due; set-up ends once the
		// primary has written it and the follower has applied every event,
		// so that neither spills into the measured load.
		dep.settle = func() error {
			err := waitFor("the warm-up to settle", 60*time.Second, func() (bool, error) {
				p, err := stats(c, rp.primary)
				if err != nil {
					return false, err
				}
				f, err := stats(c, rp.follower)
				if err != nil {
					return false, err
				}
				return p.Journal.Seq-p.Journal.SnapshotSeq < snapshotEvery && f.Journal.Seq == p.Journal.Seq, nil
			})
			if err != nil {
				return err
			}
			if before, err = stats(c, rp.primary); err != nil {
				return err
			}
			fcpu0, err = procCPU(rp.follower.pid())
			return err
		}
		dep.after = func(warm *loadRun, phases []*loadRun) error {
			fcpu1, err := procCPU(rp.follower.pid())
			if err != nil {
				return err
			}
			after, err := stats(c, rp.primary)
			if err != nil {
				return err
			}
			var ok int64
			for _, lr := range phases {
				reqs += int64(len(lr.lat))
				ok += lr.ops - lr.failed
			}
			acked += ok
			appended += int64(after.Journal.Appended - before.Journal.Appended)
			compactions += int64(after.Journal.Compactions - before.Journal.Compactions)
			followerCPU += fcpu1 - fcpu0
			r.checkReplicas(c, rp, after, warm.ops-warm.failed+ok)
			return nil
		}
		return dep, nil
	})
	if err != nil {
		return err
	}
	r.diag["journal"] = map[string]any{"appended": appended, "compactions": compactions, "follower_cpu_s": followerCPU.Seconds()}
	if !r.traced {
		return nil
	}
	r.set("journal.appends_per_req", "count", float64(appended)/float64(reqs))
	r.set("journal.compactions", "count", float64(compactions))
	r.set("replicate.follower_cpu_s", "s", followerCPU.Seconds()/(float64(acked)/1000))
	lay, err := r.ingestLayers(bodies)
	if err != nil {
		return err
	}
	return r.writeLedger(lay, phases[0], phases[1])
}

// checkReplicas verifies the primary's report count and that the
// follower converged on exactly the primary's state.
func (r *run) checkReplicas(c *http.Client, rp *replicaPair, primary *wire.StatsResponse, wantReports int64) {
	r.check("primary-report-count", int64(primary.Reports) == wantReports,
		"primary counts %d reports, want %d (warm-up plus acked)", primary.Reports, wantReports)
	var fs *wire.StatsResponse
	err := waitFor("follower catch-up", 60*time.Second, func() (bool, error) {
		var err error
		fs, err = stats(c, rp.follower)
		return err == nil && fs.Journal != nil && fs.Journal.Seq >= primary.Journal.Seq, err
	})
	r.check("follower-seq", err == nil, "%v", err)
	if err != nil {
		return
	}
	r.check("follower-seq-equal", fs.Journal.Seq == primary.Journal.Seq,
		"follower seq %d, primary seq %d", fs.Journal.Seq, primary.Journal.Seq)
	r.check("follower-battery-equal", fs.TotalBatteryJ == primary.TotalBatteryJ,
		"follower total battery %v J, primary %v J", fs.TotalBatteryJ, primary.TotalBatteryJ)
	r.check("follower-reports-equal", fs.Reports == primary.Reports,
		"follower applied %d reports, primary %d", fs.Reports, primary.Reports)
}

// ingestLayers replays a sample of report bodies in process against two
// journaled services configured like the primary, one alone and one
// with a follower reapd tailing it over loopback. Each op serves the
// body on both, alternating which goes first, so the difference (the
// ship-before-ack cost) is taken under the same host and GC conditions.
// Closing the lone service writes one full snapshot.
func (r *run) ingestLayers(bodies []reqBody) (*layerTimes, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var handlers [2]http.Handler // lone, followed
	var lone *service.Service
	var loneDir string
	for i := range handlers {
		dir, err := os.MkdirTemp(r.outDir, "journal-inproc-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		svc, err := service.New(service.Config{Devices: daemonDevices, JournalDir: dir})
		if err != nil {
			return nil, err
		}
		defer svc.Close()
		handlers[i] = svc.Handler()
		if i == 0 {
			lone, loneDir = svc, dir
			continue
		}
		srv := service.NewServer(svc, "127.0.0.1:0")
		if err := srv.Start(); err != nil {
			return nil, err
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve() }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = srv.Drain(ctx)
			<-served
		}()
		fdir, err := os.MkdirTemp(r.outDir, "journal-follower-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(fdir)
		f, err := r.startDaemon("follower", "-addr", "127.0.0.1:0", "-devices", strconv.Itoa(daemonDevices),
			"-journal", fdir, "-role", "follower", "-primary", srv.Addr(), "-follower-id", followerID)
		if err != nil {
			return nil, err
		}
		defer f.stop()
		if err := waitAttached(func() (*wire.StatsResponse, error) { return svc.Stats(), nil }); err != nil {
			return nil, err
		}
	}
	serve := func(h http.Handler, raw []byte) (start, end time.Time, err error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		start = time.Now()
		h.ServeHTTP(rec, req)
		end = time.Now()
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), ackBody) {
			err = fmt.Errorf("in-process replay: status %d: %s", rec.Code, rec.Body.String())
		}
		return start, end, err
	}
	for _, h := range handlers {
		for _, b := range bodies {
			if _, _, err := serve(h, b.raw); err != nil {
				return nil, err
			}
		}
	}
	// Fleets shaped like the daemon's shards, for timing the report apply
	// through the reap API: Fleet.Device and Controller.Report.
	shardSize := daemonDevices / daemonShards
	fleets := make([]*reap.Fleet, daemonShards)
	for i := range fleets {
		var err error
		if fleets[i], err = reap.NewFleet(shardSize, reap.WithBattery(0, 0)); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	sample := sampleBodies(len(bodies), 64)
	names := [2]string{"service.handler.lone", "service.handler"}
	var encBuf bytes.Buffer
	// layers times, on one body, the calls the handler makes into the
	// wire and reap layers.
	layers := func(opID, k int) error {
		raw := bodies[k].raw
		layersID := r.tr.id()
		l0 := time.Now()
		var req wire.ReportRequest
		if err := wire.DecodeStrict(bytes.NewReader(raw), &req); err != nil {
			return err
		}
		l1 := time.Now()
		for _, rep := range req.Reports {
			i := rep.Device / shardSize
			ctl, err := fleets[i].Device(rep.Device - i*shardSize)
			if err != nil {
				return err
			}
			if err := ctl.Report(rep.ConsumedJ); err != nil {
				return err
			}
		}
		l2 := time.Now()
		encBuf.Reset()
		if err := json.NewEncoder(&encBuf).Encode(&wire.ReportResponse{V: wire.Version, Accepted: len(req.Reports)}); err != nil {
			return err
		}
		l3 := time.Now()
		r.tr.add(span{Parent: layersID, Req: opID, Body: k, Name: "wire.decode", Start: r.tr.ns(l0), End: r.tr.ns(l1)})
		r.tr.add(span{Parent: layersID, Req: opID, Body: k, Name: "reap.report", Start: r.tr.ns(l1), End: r.tr.ns(l2)})
		r.tr.add(span{Parent: layersID, Req: opID, Body: k, Name: "wire.encode", Start: r.tr.ns(l2), End: r.tr.ns(l3)})
		r.tr.add(span{ID: layersID, Parent: opID, Req: opID, Body: k, Name: "layers", Start: r.tr.ns(l0), End: r.tr.ns(l3)})
		return nil
	}
	// Each op varies the order of the two handlers and the layers, so
	// that no step always runs on a body the previous one left in cache.
	const reps = 16
	for rep := 0; rep < reps; rep++ {
		for _, k := range sample {
			opID := r.tr.id()
			opStart := time.Now()
			if rep%4 >= 2 {
				if err := layers(opID, k); err != nil {
					return nil, err
				}
			}
			for j := 0; j < 2; j++ {
				i := (j + rep) % 2
				h0, h1, err := serve(handlers[i], bodies[k].raw)
				if err != nil {
					return nil, err
				}
				r.tr.add(span{Parent: opID, Req: opID, Body: k, Name: names[i], Start: r.tr.ns(h0), End: r.tr.ns(h1)})
			}
			if rep%4 < 2 {
				if err := layers(opID, k); err != nil {
					return nil, err
				}
			}
			if err := r.route(handlers[1], "/v1/report", []byte(`{"v":1,"reports":[]}`), &wire.ReportRequest{},
				&wire.ReportResponse{V: wire.Version}, opID, k); err != nil {
				return nil, err
			}
			r.tr.add(span{ID: opID, Req: opID, Body: k, Name: "op", Start: r.tr.ns(opStart), End: r.tr.ns(time.Now())})
		}
	}

	if err := r.measureAppend(); err != nil {
		return nil, err
	}
	lay := &layerTimes{perOp: batchItems,
		residualCovers: "per-report work between the layers: report grouping, shard locks and journal event encoding"}
	lay.handlerUS = r.tr.perBody("service.handler", false)
	ship := lay.handlerUS - r.tr.perBody("service.handler.lone", false)
	routeUS := r.tr.perBody("service.route", true)
	decode := r.tr.perBody("wire.decode", false)
	report := r.tr.perBody("reap.report", false)
	encode := r.tr.perBody("wire.encode", false)
	appendUS := r.metrics["journal.append_us"].Value
	lay.layers = []ledgerRow{
		{Layer: "service.route", SelfUS: routeUS},
		{Layer: "wire.decode", SelfUS: decode},
		{Layer: "reap.report", SelfUS: report},
		{Layer: "journal.append", SelfUS: appendUS},
		{Layer: "replicate.ship", SelfUS: ship},
		{Layer: "wire.encode", SelfUS: encode},
	}
	lay.residualUS = lay.handlerUS - routeUS - decode - report - appendUS - ship - encode
	r.set("service.handler_us", "us", lay.handlerUS)
	r.set("service.residual_us", "us", lay.residualUS)
	r.set("service.route_us", "us", routeUS)
	r.set("replicate.ship_us", "us", ship)
	r.set("wire.decode_us", "us", decode)
	r.set("reap.report_us", "us", report)
	r.set("wire.encode_us", "us", encode)
	r.set("wire.req_bytes", "B", meanBytes(bodies))
	r.set("wire.resp_bytes", "B", float64(len(ackBody)))
	raw := bodies[sample[len(sample)/2]].raw
	r.set("wire.decode_allocs", "count", testing.AllocsPerRun(20, func() {
		var req wire.ReportRequest
		_ = wire.DecodeStrict(bytes.NewReader(raw), &req)
	}))

	// One full-fleet snapshot: Close compacts before closing the journal.
	t0 := time.Now()
	if err := lone.Close(); err != nil {
		return nil, err
	}
	r.set("journal.snapshot_ms", "ms", ms(time.Since(t0)))
	snaps, _ := filepath.Glob(filepath.Join(loneDir, "snap-*.snap"))
	sort.Strings(snaps)
	if len(snaps) > 0 {
		if fi, err := os.Stat(snaps[len(snaps)-1]); err == nil {
			r.set("journal.snapshot_bytes", "B", float64(fi.Size()))
		}
	}
	return lay, nil
}
