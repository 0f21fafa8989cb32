package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"prodsynth/internal/serve"
)

// serve_http: the real synthd binary as a child process, so generator and
// system are separate processes. It adds wire JSON, admission and HTTP on
// top of the library, which batch_oneshot bypasses.

const (
	coldBoots = 5
	// Load is generated over at most this many connections (= nproc on
	// the reference box), closed and open loop alike.
	connections = 2
	// openRate is the open loop's fixed arrival rate, about 30 % of what
	// the closed loop sustains on the reference box.
	openRate = 60
	// Share of -seconds the closed loop gets; the open loop gets the rest.
	closedShare = 0.35
)

// buildSynthd compiles the daemon into the build directory. Compiling is
// building, not set-up: it happens before the set-up clock starts.
func buildSynthd(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "synthd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "prodsynth/cmd/synthd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build synthd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running synthd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr bytes.Buffer
	bootMs float64
}

// boot starts synthd on the bundle and waits for the first 200 from
// /readyz; bootMs is exec → that answer.
func boot(ctx context.Context, bin, bundle string, client *http.Client) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, "-bundle", bundle, "-addr", "127.0.0.1:0")}
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("synthd printed no address: %w\n%s", err, d.stderr.String())
	}
	d.base = strings.TrimSpace(strings.TrimPrefix(line, "listening on "))
	for {
		if err := ctx.Err(); err != nil {
			d.stop()
			return nil, err
		}
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, fmt.Errorf("synthd not ready after 30s\n%s", d.stderr.String())
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.bootMs = float64(time.Since(start)) / 1e6
	return d, nil
}

// stop asks the child to drain, waits for it to exit, and kills it if it
// does not: no run leaves a process behind.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	done := make(chan struct{})
	go func() {
		d.cmd.Wait() //nolint:errcheck // exit status of a terminated child
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // last resort
		<-done
	}
}

// peakRSSMB reads the child's resident-set high-water mark. 0 where
// /proc does not exist.
func (d *daemon) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// scrape returns the value of an unlabelled series from /metrics.
func (d *daemon) scrape(client *http.Client, series string) (float64, error) {
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("series %s not in /metrics", series)
}

// wireRequest is a request ready to send, with the digest its answer must
// have: the daemon's body is a pure function of request and model
// generation, so it is computed here from a direct SynthesizeContext.
type wireRequest struct {
	*request
	body []byte
	want [sha256.Size]byte
}

func prepareWire(ctx context.Context, m *market, pool []*request) ([]*wireRequest, error) {
	out := make([]*wireRequest, len(pool))
	for i, r := range pool {
		body, err := json.Marshal(r.wire)
		if err != nil {
			return nil, err
		}
		res, err := m.sys.SynthesizeContext(ctx, r.offers, r.pages)
		if err != nil {
			return nil, err
		}
		answer, err := json.Marshal(serve.ResponseFromResult(res))
		if err != nil {
			return nil, err
		}
		out[i] = &wireRequest{request: r, body: body, want: sha256.Sum256(append(answer, '\n'))}
	}
	return out, nil
}

// post sends one request and reports whether the answer was 200 with
// exactly the expected bytes.
func post(client *http.Client, base string, r *wireRequest) bool {
	resp, err := client.Post(base+"/v1/synthesize", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return err == nil && resp.StatusCode == http.StatusOK && sha256.Sum256(body) == r.want
}

// served is what one serving phase measured.
type served struct {
	bootMs                   []float64
	closedOffersPerS         float64
	smallMs, largeMs         []float64 // open loop, from due time
	lagMaxMs                 float64
	attempted, failed        int
	shed, peakRSSMB          float64
	bodySmallKB, bodyLargeKB float64 // mean request body
}

// serveLoad boots synthd boots times (the last child stays up), then
// drives the closed loop for closedFor and the open loop for openFor.
func (b *bench) serveLoad(ctx context.Context, bin, bundle string, small, large []*wireRequest, mix *requestMix, boots int, closedFor, openFor time.Duration) (*served, error) {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections}}
	defer client.CloseIdleConnections()
	s := &served{}
	var d *daemon
	for i := 0; i < boots; i++ {
		if d != nil {
			d.stop()
		}
		var err error
		if d, err = boot(ctx, bin, bundle, client); err != nil {
			return nil, err
		}
		s.bootMs = append(s.bootMs, d.bootMs)
	}
	defer d.stop()

	index := map[*request]*wireRequest{}
	for _, pool := range [][]*wireRequest{small, large} {
		var bytesTotal int
		for _, r := range pool {
			index[r.request] = r
			bytesTotal += len(r.body)
			// Warm-up: every template once, which also checks each body.
			s.attempted++
			if !post(client, d.base, r) {
				s.failed++
			}
		}
		kb := float64(bytesTotal) / float64(len(pool)) / 1024
		if pool[0].large {
			s.bodyLargeKB = kb
		} else {
			s.bodySmallKB = kb
		}
	}

	// The open loop's requests are drawn first, so they depend on the seed
	// alone and not on how many requests the closed loop got through.
	plan := make([]*wireRequest, int(openFor.Seconds()*openRate))
	for i := range plan {
		plan[i] = index[mix.next()]
	}

	// Closed loop: each connection sends its next request when the
	// previous one is answered.
	var mu sync.Mutex
	var wg sync.WaitGroup
	var offers int
	start := time.Now()
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < closedFor && ctx.Err() == nil {
				mu.Lock()
				r := index[mix.next()]
				mu.Unlock()
				ok := post(client, d.base, r)
				mu.Lock()
				s.attempted++
				if ok {
					offers += len(r.offers)
				} else {
					s.failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.closedOffersPerS = float64(offers) / time.Since(start).Seconds()

	// Open loop: arrivals on a fixed schedule whatever the daemon does,
	// each timed from when it was due.
	shots := openLoop(wallClock{}, time.Second/openRate, len(plan), connections, func(i int) bool {
		return post(client, d.base, plan[i])
	})
	for i, sh := range shots {
		s.attempted++
		s.lagMaxMs = max(s.lagMaxMs, float64(sh.sent-sh.due)/1e6)
		switch ms := float64(sh.done-sh.due) / 1e6; {
		case !sh.ok:
			s.failed++
		case plan[i].large:
			s.largeMs = append(s.largeMs, ms)
		default:
			s.smallMs = append(s.smallMs, ms)
		}
	}

	var err error
	if s.shed, err = d.scrape(client, "synthd_shed_total"); err != nil {
		return nil, err
	}
	s.peakRSSMB = d.peakRSSMB()
	return s, nil
}

// clock is the open loop's time source, so its schedule accounting is
// testable without waiting.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// shot is one open-loop request: when it was due, when a worker sent it,
// when its answer was complete — offsets from the loop's start.
type shot struct {
	due, sent, done time.Duration
	ok              bool
}

// openLoop issues n requests, request i due at i×interval after the
// start, over the given number of workers. A worker never sends early; if
// every worker is busy when a request falls due it is sent late, and the
// lateness (sent − due) is the generator's lag. Latency is counted from
// due, so the wait a stall imposes on later requests is in their figures.
func openLoop(clk clock, interval time.Duration, n, workers int, do func(i int) bool) []shot {
	shots := make([]shot, n)
	start := clk.Now()
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				sh := &shots[i]
				sh.due = time.Duration(i) * interval
				if wait := sh.due - clk.Now().Sub(start); wait > 0 {
					clk.Sleep(wait)
				}
				sh.sent = clk.Now().Sub(start)
				sh.ok = do(i)
				sh.done = clk.Now().Sub(start)
			}
		}()
	}
	wg.Wait()
	return shots
}

func runServeHTTP(ctx context.Context, b *bench) error {
	bin, err := buildSynthd(ctx)
	if err != nil {
		return err
	}
	b.started = time.Now()
	m, err := b.newMarket(ctx)
	if err != nil {
		return err
	}
	bundle, err := b.saveBundle(m)
	if err != nil {
		return err
	}
	mix := b.newRequestMix(m)
	small, err := prepareWire(ctx, m, mix.small)
	if err != nil {
		return err
	}
	large, err := prepareWire(ctx, m, mix.large)
	if err != nil {
		return err
	}
	b.endSetup()
	if _, err := b.reference(ctx, m, "req_small_p50_ms", "boot_ms"); err != nil {
		return err
	}
	b.digest("response_small", fmt.Sprintf("%x", small[0].want))
	b.digest("response_large", fmt.Sprintf("%x", large[0].want))

	budget := time.Duration(b.seconds * float64(time.Second))
	closedFor := time.Duration(closedShare * float64(budget))
	s, err := b.serveLoad(ctx, bin, bundle, small, large, mix, coldBoots, closedFor, budget-closedFor)
	if err != nil {
		return err
	}
	b.ops(s.attempted+len(s.bootMs), s.failed)
	b.check(s.shed == 0, "serve.shed = %g: admission refused requests at %d connections", s.shed, connections)
	b.put("boot_ms", "ms", s.bootMs...)
	b.put("offers_per_s", "offers/s", s.closedOffersPerS)
	b.put("req_small_p50_ms", "ms", s.smallMs...)
	b.put("req_large_p50_ms", "ms", s.largeMs...)
	b.logf("serve_http: %d requests, %d failed; open loop p99 %.2f ms, generator lag max %.2f ms, child peak RSS %.0f MB",
		s.attempted, s.failed, percentile(append(s.smallMs, s.largeMs...), 0.99), s.lagMaxMs, s.peakRSSMB)
	return nil
}
