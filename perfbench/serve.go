package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"turnstile/internal/corpus"
	"turnstile/internal/durable"
	"turnstile/internal/serve"
	"turnstile/internal/workload"
)

// Serve workload sizing: every tenant gets servePerTenant arrivals per
// batch with gaps of up to serveMaxGap virtual ticks, so a batch of nine
// tenants commits 2250 messages: 22 beyond its p99. The quota admits
// everything and sheds nothing, so no arrival is refused.
const (
	servePerTenant = 250
	serveMaxGap    = 4
)

var serveQuota = serve.Quota{MaxQueue: 0, MaxLagTicks: 0, DrainBudget: -1}

// tenantProbe collects one tenant's timings. Only that tenant's goroutine
// touches it while the fleet runs.
type tenantProbe struct {
	idx     int
	rec     *recorder
	pending bool      // a processed message awaits its commit sync
	start   time.Time // when that message's Process began
	root    int       // its commit span
	msg     int64

	commitUs, processUs, appendUs, syncUs, snapMs []float64
	syncs                                         int
	bytes                                         int
}

func (p *tenantProbe) trace() int64 { return int64(p.idx)<<32 | p.msg }

// timedDriver wraps the tenant's serve.AppDriver and times Process.
// Embedding keeps every optional interface the durable layer probes for.
type timedDriver struct {
	*serve.AppDriver
	p *tenantProbe
}

func (d *timedDriver) Process(i int, payload string) serve.Outcome {
	p := d.p
	p.msg = int64(i)
	p.root = p.rec.begin(p.trace(), 0, "serve.commit")
	id := p.rec.begin(p.trace(), p.root, "serve.Process")
	t0 := time.Now()
	out := d.AppDriver.Process(i, payload)
	p.processUs = append(p.processUs, us(time.Since(t0)))
	p.rec.end(id)
	p.pending, p.start = true, t0
	return out
}

// timedStore wraps the durable.Store and times its calls per tenant. A
// tenant's first WAL sync after a Process is the sync that makes that
// message's commit record durable.
type timedStore struct {
	durable.Store
	wal, snap map[string]*tenantProbe // read-only while the fleet runs
}

func (s *timedStore) Append(name string, data []byte) error {
	p := s.wal[name]
	if p == nil {
		return s.Store.Append(name, data)
	}
	id := p.rec.begin(p.trace(), p.root, "durable.Append")
	t0 := time.Now()
	err := s.Store.Append(name, data)
	p.appendUs = append(p.appendUs, us(time.Since(t0)))
	p.rec.end(id)
	p.bytes += len(data)
	return err
}

func (s *timedStore) Sync(name string) error {
	p := s.wal[name]
	if p == nil {
		return s.Store.Sync(name)
	}
	id := p.rec.begin(p.trace(), p.root, "durable.Sync")
	t0 := time.Now()
	err := s.Store.Sync(name)
	end := time.Now()
	p.rec.end(id)
	p.syncUs = append(p.syncUs, us(end.Sub(t0)))
	p.syncs++
	if p.pending {
		p.commitUs = append(p.commitUs, us(end.Sub(p.start)))
		p.rec.end(p.root)
		p.pending, p.root = false, 0
	}
	return err
}

func (s *timedStore) WriteFile(name string, data []byte) error {
	p := s.snap[name]
	if p == nil {
		return s.Store.WriteFile(name, data)
	}
	id := p.rec.begin(p.trace(), 0, "durable.Snapshot")
	t0 := time.Now()
	err := s.Store.WriteFile(name, data)
	p.snapMs = append(p.snapMs, ms(time.Since(t0)))
	p.rec.end(id)
	return err
}

// servePhase is the serve workload: a durable multi-tenant fleet, run in
// batches. A batch deploys the timed fleet and, every diskEvery batches,
// an identical disk fleet next to it. The timed one keeps
// its WAL and snapshots in a durable.MemStore, so every admit and commit
// is still framed, checksummed, appended and synced through the store
// while the host's disk stays out of the end-to-end numbers (fsync times
// on a shared host swing far more than any bound). The other runs on a
// durable.FileStore on disk; its store calls give the durable.* per-layer
// timings, and every tenant's account must match the timed run's. The
// timed fleet runs on one worker after a collection (see quiet), so a
// commit never waits for the CPU behind another tenant's message or a
// collection; the disk fleet uses min(2, nproc) workers.
type servePhase struct {
	seed     uint64
	dir      string
	parallel int
	apps     []*corpus.App

	next       *serveFleet // deployed ahead, by set-up or the previous batch
	batch      int
	batches    []serveBatch // untraced
	tracedUs   []float64    // commits of traced batches, traced run only
	probes     []*tenantProbe
	diskProbes []*tenantProbe
	deployMs   []float64
	p99Ticks   []float64
	distinct   int
	denied     int
	shed       int
	tally
}

// serveBatch is one untraced batch of the timed fleet.
type serveBatch struct {
	msgsPerS float64
	commitUs []float64
	p99      float64
}

// serveFleet is one batch's timed fleet and, on disk batches, its
// identically deployed disk twin, each tenant with its probe.
type serveFleet struct {
	timed, disk             []serve.TenantConfig
	timedProbes, diskProbes []*tenantProbe
	traced                  bool
}

func newServePhase(seed uint64, out string) (*servePhase, error) {
	all := corpus.All()
	p := &servePhase{seed: seed, dir: filepath.Join(out, "serve-state"), parallel: min(2, runtime.NumCPU())}
	distinct := map[[32]byte]bool{}
	for _, name := range serveApps {
		a := corpus.ByName(all, name)
		if a == nil {
			return nil, fmt.Errorf("serve: corpus app %s missing", name)
		}
		for t := 0; t < tenantsPerApp; t++ {
			p.apps = append(p.apps, a)
			distinct[sourceKey(map[string]string{a.Name + ".js": a.Source})] = true
		}
	}
	// tenants of one app deploy the same source: the repeat a deploy
	// cache needs and the deploy workload never has
	if p.distinct = len(distinct); p.distinct >= len(p.apps) {
		return nil, fmt.Errorf("serve: %d tenants over %d distinct sources, want repeats", len(p.apps), p.distinct)
	}
	return p, nil
}

// diskEvery is how often a batch also runs the disk fleet: batch 0 and
// every diskEvery-th one after it. The disk fleet's synced writes take
// several times the timed fleet's run, so running it on every batch
// would leave the timed fleet few batches.
const diskEvery = 8

// deploy builds the fleets for the next batch. In a traced run odd
// batches record spans, so the tracing overhead compares batches of one
// process.
func (p *servePhase) deploy(rec *recorder) error {
	f := &serveFleet{traced: rec != nil && p.batch%2 == 1}
	if !f.traced {
		rec = nil
	}
	fleets := 1
	if p.batch%diskEvery == 0 {
		fleets = 2
	}
	for i, a := range p.apps {
		name := fmt.Sprintf("t%02d-%s", i, a.Name)
		arrivals := workload.GenerateTrace(int64(p.seed<<20)+int64(p.batch), name, servePerTenant, serveMaxGap)
		cfg := serve.AppConfig{
			Name:       name,
			Sources:    map[string]string{a.Name + ".js": a.Source},
			PolicyJSON: a.PolicyJSON,
			SourceName: a.SourceName,
			Enforce:    true,
		}
		for fleet := 0; fleet < fleets; fleet++ {
			lim := serve.DefaultTenantLimits()
			cfg.Limits = &lim
			t0 := time.Now()
			drv, err := serve.NewAppDriver(cfg)
			if err != nil {
				return err
			}
			pr := &tenantProbe{idx: fleet*len(p.apps) + i, rec: rec}
			tc := serve.TenantConfig{Name: name, Quota: serveQuota, Arrivals: arrivals, Driver: &timedDriver{AppDriver: drv, p: pr}}
			if fleet == 0 {
				p.deployMs = append(p.deployMs, ms(time.Since(t0)))
				f.timed, f.timedProbes = append(f.timed, tc), append(f.timedProbes, pr)
			} else {
				f.disk, f.diskProbes = append(f.disk, tc), append(f.diskProbes, pr)
			}
		}
	}
	p.next = f
	return nil
}

// serveMinBatches is the fewest batches a run plays; the batch medians
// need a few.
const serveMinBatches = 3

func (p *servePhase) enough() bool { return p.batch >= serveMinBatches }

// step plays one batch, deploying its fleets unless set-up already has.
func (p *servePhase) step(rec *recorder) error {
	if p.next == nil {
		if err := p.deploy(rec); err != nil {
			return err
		}
	}
	f := p.next
	p.next = nil
	err := p.runBatch(f)
	p.batch++
	return err
}

// fleetStore wraps store so the probes of fleet time its calls.
func fleetStore(store durable.Store, tenants []serve.TenantConfig, probes []*tenantProbe) *timedStore {
	ts := &timedStore{Store: store, wal: map[string]*tenantProbe{}, snap: map[string]*tenantProbe{}}
	for i, tc := range tenants {
		ts.wal[serve.WALName(tc.Name)] = probes[i]
		ts.snap[serve.SnapName(tc.Name)] = probes[i]
	}
	return ts
}

func (p *servePhase) runBatch(f *serveFleet) error {
	b := p.batch
	var timed *serve.Report
	var err error
	wall := quiet(func() {
		timed, err = (&serve.Server{Tenants: f.timed, Store: fleetStore(durable.NewMemStore(), f.timed, f.timedProbes)}).Run(1)
	})
	if err != nil {
		return fmt.Errorf("serve batch %d: %w", b, err)
	}

	var disk *serve.Report
	if f.disk != nil {
		if disk, err = p.runDisk(f); err != nil {
			return fmt.Errorf("serve batch %d on disk: %w", b, err)
		}
	}

	var ticks []float64
	processed := 0
	for i, t := range timed.Tenants {
		if disk != nil {
			if err := sameAccount(disk.Tenants[i], t); err != nil {
				p.mismatch(fmt.Errorf("serve batch %d tenant %s: %w", b, t.Name, err))
			}
		}
		p.attempted += len(f.timed[i].Arrivals)
		p.denied += t.Denied
		p.shed += t.Shed
		if n := t.Denied + t.Shed + t.Abandoned + t.Budget + t.Throws + t.Errors; n > 0 {
			p.failed += n
			p.note(fmt.Errorf("serve batch %d tenant %s: %d arrivals refused, shed, abandoned or failed", b, t.Name, n))
		}
		processed += t.Processed
		for _, l := range t.Latencies {
			ticks = append(ticks, float64(l))
		}
	}
	if len(ticks) > 0 {
		p.p99Ticks = append(p.p99Ticks, sortedCopy(ticks)[rank(len(ticks), 0.99)])
	}
	var commits []float64
	for _, pr := range f.timedProbes {
		commits = append(commits, pr.commitUs...)
	}
	p.probes = append(p.probes, f.timedProbes...)
	p.diskProbes = append(p.diskProbes, f.diskProbes...)
	if f.traced {
		p.tracedUs = append(p.tracedUs, commits...)
		return nil
	}
	p99, err := tail(commits, 0.99)
	if err != nil {
		return fmt.Errorf("serve batch %d commit p99: %w", b, err)
	}
	p.batches = append(p.batches, serveBatch{msgsPerS: float64(processed) / wall.Seconds(), commitUs: commits, p99: p99})
	return nil
}

// runDisk runs the batch's disk fleet on a FileStore of its own.
func (p *servePhase) runDisk(f *serveFleet) (*serve.Report, error) {
	runtime.GC() // the timed fleet's garbage
	dir := filepath.Join(p.dir, fmt.Sprintf("batch-%d", p.batch))
	defer os.RemoveAll(dir)
	fs, err := durable.NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	disk, err := (&serve.Server{Tenants: f.disk, Store: fleetStore(fs, f.disk, f.diskProbes)}).Run(p.parallel)
	if cerr := fs.Close(); err == nil {
		err = cerr
	}
	return disk, err
}

// sameAccount compares the FileStore run of a tenant with its in-memory
// run: the store must not change what the tenant did.
func sameAccount(disk, mem *serve.TenantReport) error {
	switch {
	case disk.Fingerprint != mem.Fingerprint:
		return fmt.Errorf("fingerprint differs from the in-memory run")
	case disk.Admitted != mem.Admitted || disk.Processed != mem.Processed || disk.Denied != mem.Denied ||
		disk.Shed != mem.Shed || disk.Drained != mem.Drained || disk.Abandoned != mem.Abandoned ||
		disk.OK != mem.OK || disk.Violations != mem.Violations || disk.Budget != mem.Budget ||
		disk.Throws != mem.Throws || disk.Errors != mem.Errors || disk.ClockEnd != mem.ClockEnd:
		return fmt.Errorf("counters differ from the in-memory run")
	case !reflect.DeepEqual(disk.Latencies, mem.Latencies) || disk.LatencyP(0.5) != mem.LatencyP(0.5) || disk.LatencyP(0.99) != mem.LatencyP(0.99):
		return fmt.Errorf("tick latencies differ from the in-memory run")
	case disk.Poisoned || disk.Crashed:
		return fmt.Errorf("tenant ended poisoned or crashed")
	}
	return nil
}

// layers derives the serve and durable per-layer metrics.
func (p *servePhase) layers(out map[string]float64) error {
	var process, appends, syncs, snaps []float64
	var nsync, bytes, committed int
	for _, pr := range p.probes {
		process = append(process, pr.processUs...)
	}
	for _, pr := range p.diskProbes {
		appends = append(appends, pr.appendUs...)
		syncs = append(syncs, pr.syncUs...)
		snaps = append(snaps, pr.snapMs...)
		nsync += pr.syncs
		bytes += pr.bytes
		committed += len(pr.processUs)
	}
	var err error
	out["serve.deploy_ms_p50"] = median(p.deployMs)
	out["serve.process_us_p50"] = median(process)
	if out["serve.process_us_p99"], err = tail(process, 0.99); err != nil {
		return fmt.Errorf("serve.process_us_p99: %w", err)
	}
	out["serve.p99_ticks"] = median(p.p99Ticks)
	out["serve.denied"] = float64(p.denied)
	out["serve.shed"] = float64(p.shed)
	out["durable.append_us_p50"] = median(appends)
	out["durable.sync_us_p50"] = median(syncs)
	if out["durable.sync_us_p99"], err = tail(syncs, 0.99); err != nil {
		return fmt.Errorf("durable.sync_us_p99: %w", err)
	}
	out["durable.syncs_per_msg"] = ratio(float64(nsync), float64(committed))
	out["durable.bytes_per_msg"] = ratio(float64(bytes), float64(committed))
	out["durable.snapshot_ms"] = median(snaps)
	var untraced []float64
	for _, b := range p.batches {
		untraced = append(untraced, b.commitUs...)
	}
	out["trace.overhead.serve_commit_us_p50"] = ratio(median(p.tracedUs), median(untraced)) - 1
	return nil
}

// endToEnd reports the serve metrics over every untraced batch:
// throughput and commit p99 as medians of the batch values (each batch
// p99 has ten samples beyond it), commit p50 over their pooled commits.
func (p *servePhase) endToEnd(out map[string]float64) {
	var perS, p99s, commits []float64
	for _, b := range p.batches {
		perS = append(perS, b.msgsPerS)
		p99s = append(p99s, b.p99)
		commits = append(commits, b.commitUs...)
	}
	out["serve_msgs_per_s"] = median(perS)
	out["serve_commit_us_p50"] = median(commits)
	out["serve_commit_us_p99"] = median(p99s)
}
