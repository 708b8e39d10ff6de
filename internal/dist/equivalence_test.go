package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/testbed"
)

// The distributed search must be bit-identical to the single-node one:
// same ga.Result (DeepEqual), same winning program, same checkpoint
// bytes — for any worker count and any kill schedule. These tests run
// the full AUDIT search both ways and compare.

// searchOptions returns a small but real search: fixed loop length
// (skips the resonance sweep), memoized hierarchical GA, batched
// evaluation.
func searchOptions(ckpt string) core.Options {
	return core.Options{
		Platform:       testbed.Bulldozer(),
		Threads:        2,
		LoopCycles:     32,
		MeasureCycles:  2200,
		WarmupCycles:   700,
		Seed:           77,
		Name:           "dist-equiv",
		CheckpointPath: ckpt,
		GA: ga.Config{
			PopSize:        8,
			Elites:         2,
			TournamentK:    3,
			MutationProb:   0.6,
			MaxGenerations: 3,
			Parallel:       2,
			Seed:           78,
		},
	}
}

// runSerial is the golden single-node search.
func runSerial(t *testing.T, dir string) (*core.Stressmark, []byte) {
	t.Helper()
	ckpt := filepath.Join(dir, "serial.ckpt")
	sm, err := core.Generate(context.Background(), searchOptions(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	return sm, blob
}

// workerPool runs nWorkers in-process workers against url, each on its
// own compiled platform. When killEvery > 0, a reaper cancels one
// worker (simulated SIGKILL — the process just stops talking) on that
// period and starts a replacement under a fresh ID.
type workerPool struct {
	t        *testing.T
	url      string
	digest   string
	mu       sync.Mutex
	cancels  map[string]context.CancelFunc
	wg       sync.WaitGroup
	stop     chan struct{}
	nextID   int
	stopOnce sync.Once
}

func newWorkerPool(t *testing.T, co *Coordinator, url string, nWorkers int, killEvery time.Duration) *workerPool {
	t.Helper()
	p := &workerPool{
		t: t, url: url,
		digest:  testbed.PlatformDigest(testbed.Bulldozer()),
		cancels: make(map[string]context.CancelFunc),
		stop:    make(chan struct{}),
	}
	for i := 0; i < nWorkers; i++ {
		p.spawn()
	}
	waitWorkers(t, co, nWorkers)
	if killEvery > 0 {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			rng := rand.New(rand.NewSource(1))
			tick := time.NewTicker(killEvery)
			defer tick.Stop()
			for {
				select {
				case <-p.stop:
					return
				case <-tick.C:
				}
				p.mu.Lock()
				ids := make([]string, 0, len(p.cancels))
				for id := range p.cancels {
					ids = append(ids, id)
				}
				if len(ids) == 0 {
					p.mu.Unlock()
					continue
				}
				victim := ids[rng.Intn(len(ids))]
				p.cancels[victim]()
				delete(p.cancels, victim)
				p.mu.Unlock()
				p.t.Logf("pool: killed %s", victim)
				p.spawn()
			}
		}()
	}
	return p
}

func (p *workerPool) spawn() {
	cp, err := testbed.Bulldozer().Compile()
	if err != nil {
		p.t.Error(err)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.stop:
		// close has cancelled every worker it could see; one started
		// now (the reaper's replacement racing the end of the search)
		// would never be cancelled, and close would wait on it forever.
		return
	default:
	}
	id := fmt.Sprintf("pw%d", p.nextID)
	p.nextID++
	w, err := NewWorker(WorkerConfig{
		ID: id, BaseURL: p.url, Runner: cp, Platform: p.digest,
		Poll: 5 * time.Millisecond,
	})
	if err != nil {
		p.t.Error(err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.cancels[id] = cancel
	p.wg.Add(1) // under mu, so close's Wait cannot start before it
	go func() {
		defer p.wg.Done()
		w.Run(ctx)
	}()
}

func (p *workerPool) close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.mu.Lock()
	for _, cancel := range p.cancels {
		cancel()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// runDistributed runs the same search through a coordinator with
// nWorkers workers, optionally killing one per killEvery.
func runDistributed(t *testing.T, dir string, nWorkers int, killEvery time.Duration) (*core.Stressmark, []byte, Stats) {
	t.Helper()
	ckpt := filepath.Join(dir, fmt.Sprintf("dist-%d-%v.ckpt", nWorkers, killEvery))
	opt := searchOptions(ckpt)
	var co *Coordinator
	var pool *workerPool
	opt.WrapRunner = func(r testbed.Runner) testbed.Runner {
		local, ok := r.(LocalRunner)
		if !ok {
			t.Fatalf("runner %T is not a LocalRunner", r)
		}
		var err error
		co, err = NewCoordinator(Config{
			Local:    local,
			Platform: testbed.PlatformDigest(testbed.Bulldozer()),
			UnitSize: 2,
			LeaseTTL: 150 * time.Millisecond,
			Logf:     t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(co.Handler())
		t.Cleanup(srv.Close)
		pool = newWorkerPool(t, co, srv.URL, nWorkers, killEvery)
		return co
	}
	sm, err := core.Generate(context.Background(), opt)
	pool.close()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	return sm, blob, co.Stats()
}

// checkEquivalent compares a distributed search outcome to the golden
// serial one: the GA trajectory, winner and checkpoint must all match
// exactly.
func checkEquivalent(t *testing.T, label string, golden, got *core.Stressmark, goldenCkpt, gotCkpt []byte) {
	t.Helper()
	if !reflect.DeepEqual(got.Search, golden.Search) {
		t.Errorf("%s: ga.Result differs from serial run\n got: %+v\nwant: %+v", label, got.Search, golden.Search)
	}
	if got.DroopV != golden.DroopV {
		t.Errorf("%s: DroopV %v != %v", label, got.DroopV, golden.DroopV)
	}
	if !reflect.DeepEqual(got.Program, golden.Program) {
		t.Errorf("%s: winning program differs", label)
	}
	if !reflect.DeepEqual(got.Genome, golden.Genome) {
		t.Errorf("%s: winning genome differs", label)
	}
	if string(gotCkpt) != string(goldenCkpt) {
		t.Errorf("%s: final checkpoint bytes differ (%d vs %d bytes)", label, len(gotCkpt), len(goldenCkpt))
	}
}

// TestDistributedSearchEquivalence: worker counts {1,2,4}, each with
// and without a kill schedule, all bit-identical to the serial search.
func TestDistributedSearchEquivalence(t *testing.T) {
	dir := t.TempDir()
	golden, goldenCkpt := runSerial(t, dir)

	counts := []int{1, 2, 4}
	if testing.Short() {
		counts = []int{2}
	}
	for _, n := range counts {
		for _, kill := range []time.Duration{0, 45 * time.Millisecond} {
			label := fmt.Sprintf("workers=%d kill=%v", n, kill)
			t.Run(label, func(t *testing.T) {
				sm, ckpt, st := runDistributed(t, t.TempDir(), n, kill)
				checkEquivalent(t, label, golden, sm, goldenCkpt, ckpt)
				t.Logf("%s: stats %+v", label, st)
			})
		}
	}
}

// TestCoordinatorCrashResume kills the whole coordinator process
// (simulated: context cancelled mid-search) after at least one
// generation checkpoint, then resumes from the checkpoint with a brand
// new coordinator and worker pool. The stitched-together search must be
// bit-identical to the uninterrupted serial one.
func TestCoordinatorCrashResume(t *testing.T) {
	dir := t.TempDir()
	golden, goldenCkpt := runSerial(t, dir)

	ckpt := filepath.Join(dir, "crash.ckpt")
	opt := searchOptions(ckpt)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var pool *workerPool
	var co *Coordinator
	opt.WrapRunner = func(r testbed.Runner) testbed.Runner {
		var err error
		co, err = NewCoordinator(Config{
			Local: r.(LocalRunner), UnitSize: 2,
			LeaseTTL: 150 * time.Millisecond, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(co.Handler())
		t.Cleanup(srv.Close)
		pool = newWorkerPool(t, co, srv.URL, 2, 0)
		return co
	}
	// Crash the coordinator as soon as generation 1's checkpoint lands
	// — the search is then mid-generation 2 (or about to be).
	go func() {
		for {
			if gen, ok := checkpointGen(ckpt); ok && gen >= 1 {
				cancel()
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	if _, err := core.Generate(ctx, opt); err == nil {
		t.Fatal("search finished before the simulated crash; raise MaxGenerations")
	}
	pool.close()

	// Resume with a fresh coordinator, fresh workers, fresh platform.
	blob, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	resumeGen, _ := checkpointGen(ckpt)
	t.Logf("crashed with checkpoint at generation %d, resuming", resumeGen)
	loaded, err := core.LoadSearchCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	opt2 := searchOptions(ckpt)
	opt2.Resume = loaded
	var pool2 *workerPool
	opt2.WrapRunner = func(r testbed.Runner) testbed.Runner {
		co2, err := NewCoordinator(Config{
			Local: r.(LocalRunner), UnitSize: 2,
			LeaseTTL: 150 * time.Millisecond, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(co2.Handler())
		t.Cleanup(srv.Close)
		pool2 = newWorkerPool(t, co2, srv.URL, 2, 0)
		return co2
	}
	sm, err := core.Generate(context.Background(), opt2)
	pool2.close()
	if err != nil {
		t.Fatal(err)
	}
	final, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, "crash-resume", golden, sm, goldenCkpt, final)
}

// checkpointGen reads the generation counter out of a checkpoint file.
func checkpointGen(path string) (int, bool) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	var env struct {
		GA struct {
			Gen int `json:"gen"`
		} `json:"ga"`
	}
	if err := json.Unmarshal(blob, &env); err != nil {
		return 0, false
	}
	return env.GA.Gen, true
}
