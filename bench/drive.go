package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sloMS is the interactive tenant's latency limit: a request that fails
// or takes longer misses it.
const sloMS = 50

// outcome is one request's result as the client saw it.
type outcome struct {
	ok    bool
	lat   float64 // ms from send (open loop: from the scheduled send time)
	late  float64 // ms the open-loop generator sent after the schedule
	cells int
	bulk  bool
	sum   [sha256.Size]byte // sha256 of the response body
}

// client is a load generator's HTTP client.
type client struct {
	hc  *http.Client
	url string
	v   *verifier
	tr  *tracer
}

// newClient allows conns connections to the gateway; 0 means no limit.
func newClient(url string, conns int, v *verifier, tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: 16,
			DisableCompression:  true,
		}},
		url: url, v: v, tr: tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one HTTP request and reads the whole response into buf.
func (c *client) do(ctx context.Context, method, path string, body []byte, r request, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Accept", "application/json")
	req.Header.Set(reqHeader, r.id)
	if r.tenant != "" {
		req.Header.Set("X-Tenant", r.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// run sends one synchronous request, verifies the response and records
// the client span.
func (c *client) run(ctx context.Context, r request, buf *bytes.Buffer) outcome {
	start := c.tr.now()
	status, err := c.do(ctx, http.MethodPost, "/v1/experiments/"+r.exp, r.body, r, buf)
	if c.tr.enabled() {
		c.tr.add(span{Name: "client", Req: r.id, Start: start, End: c.tr.now()})
	}
	o := outcome{cells: r.cells, ok: err == nil && c.v.check(r, status, buf.Bytes())}
	if err != nil {
		c.v.failf("%s: %v", r.id, err)
	}
	o.sum = sha256.Sum256(buf.Bytes())
	return o
}

// closedLoop sends reqs from conns clients, each waiting for its reply
// before sending the next, and returns the outcomes in request order.
func closedLoop(ctx context.Context, url string, reqs []request, conns int, v *verifier, tr *tracer) []outcome {
	c := newClient(url, conns, v, tr)
	defer c.close()
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				out[i] = c.run(ctx, reqs[i], &buf)
				out[i].lat = ms(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	return out
}

// bulkOutstanding is how many runs the bulk tenant keeps submitted:
// twice the gateway's 4 default execution slots, so a slot a bulk run
// frees is taken again while its submitter is still polling, and a
// fresh interactive request queues behind bulk work.
const bulkOutstanding = 8

// scheduleDelay is how long after the bulk tenant's first submissions
// the interactive schedule starts, so that every interactive request
// meets the slots already full rather than the fresh stack's first
// connections. In eight interleaved runs with and without it, the
// quartile spread of tenant-mix's p50 was 0.07 with it and 0.16 without.
const scheduleDelay = 200 * time.Millisecond

// tenantRound drives one tenant-mix round: the interactive schedule
// open-loop, each request timed from its scheduled send time, beside
// the bulk tenant submitting its list with ?async=1 and polling, with
// bulkOutstanding runs outstanding. Outcomes come back interactive first,
// then bulk, each in list order.
func tenantRound(ctx context.Context, url string, inter, bulk []request, v *verifier, tr *tracer) []outcome {
	ic := newClient(url, 0, v, tr)
	defer ic.close()
	bc := newClient(url, 2, v, tr)
	defer bc.close()
	out := make([]outcome, len(inter)+len(bulk))
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < bulkOutstanding; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bulk) {
					return
				}
				t0 := time.Now()
				o := bc.async(ctx, bulk[i], &buf)
				o.lat = ms(time.Since(t0))
				o.bulk = true
				out[len(inter)+i] = o
			}
		}()
	}
	start := time.Now().Add(scheduleDelay)
	for i, r := range inter {
		due := start.Add(r.at)
		select {
		case <-time.After(time.Until(due)):
		case <-ctx.Done():
		}
		late := ms(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			o := ic.run(ctx, r, &buf)
			o.lat = ms(time.Since(due))
			o.late = late
			out[i] = o
		}()
	}
	wg.Wait()
	return out
}

// async submits a run with ?async=1 and polls it, backing off from 2 ms
// to 16 ms, until the gateway answers with its result.
func (c *client) async(ctx context.Context, r request, buf *bytes.Buffer) outcome {
	o := outcome{cells: r.cells}
	status, err := c.do(ctx, http.MethodPost, "/v1/experiments/"+r.exp+"?async=1", r.body, r, buf)
	var sub struct{ ID string }
	if err == nil && status == http.StatusAccepted {
		err = json.Unmarshal(buf.Bytes(), &sub)
	} else if err == nil {
		err = fmt.Errorf("submit answered %d: %s", status, strings.TrimSpace(buf.String()))
	}
	for wait := 2 * time.Millisecond; err == nil; wait = min(2*wait, 16*time.Millisecond) {
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			err = ctx.Err()
			continue
		}
		status, err = c.do(ctx, http.MethodGet, "/v1/runs/"+sub.ID, nil, r, buf)
		if err == nil && status != http.StatusAccepted {
			o.ok = c.v.check(r, status, buf.Bytes())
			o.sum = sha256.Sum256(buf.Bytes())
			return o
		}
	}
	c.v.failf("%s: %v", r.id, err)
	return o
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// roundHash is rows_sha256: a sha256 over every response's sha256, in
// request order.
func roundHash(outs []outcome) [sha256.Size]byte {
	h := sha256.New()
	for _, o := range outs {
		h.Write(o.sum[:])
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}
