package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// Timeouts for the traffic classes of the wire protocol. Execute bounds a
// whole sweep batch of detailed simulations, so it is generous; a
// peer-cache fetch is a map lookup, so a peer that cannot answer fast is
// treated as a miss; the control plane (join, membership pushes) sits in
// between. Plan transfers move megabytes and — with ?wait=1 — deliberately
// park on a peer that is mid-functional-pass, so they get their own pair.
const (
	executeTimeout = 5 * time.Minute
	fetchTimeout   = 3 * time.Second
	controlTimeout = 5 * time.Second

	planFetchTimeout = 10 * time.Second
	planWaitTimeout  = 40 * time.Second // covers the server's long-poll bound
	planPushTimeout  = 30 * time.Second
)

// sharedTransport is the one HTTP transport every coordinator and worker
// in this process dials through. Cluster traffic is many small requests to
// a handful of stable peers, so connection reuse dominates per-dispatch
// cost: keep-alives stay on and the idle pool is sized for a whole fleet's
// worth of concurrent cell dispatches to each node (the default transport
// caps idle connections per host at 2 and throws the rest away, paying a
// TCP handshake per dispatch under any real concurrency). Per-call
// deadlines stay on each request's context — the client itself sets none,
// so one slow plan transfer cannot time out an unrelated sweep dispatch.
var sharedTransport = &http.Transport{
	Proxy:               http.ProxyFromEnvironment,
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
}

var sharedHC = &http.Client{Transport: sharedTransport}

// SharedClient returns the package's tuned, fleet-sized HTTP client.
// Everything that talks the cluster protocol — coordinators, workers, the
// daemon's join loop — should use it rather than building per-call
// clients, so the whole process shares one keep-alive pool.
func SharedClient() *http.Client { return sharedHC }

// saturatedError is a worker's admission refusal (HTTP 429 or 503): the
// node is healthy but full, so the cell should be offered to another node —
// the work-stealing trigger — and retried here only after the hint.
type saturatedError struct {
	after time.Duration
	msg   string
}

func (e *saturatedError) Error() string { return e.msg }

// fetchResult asks the node at base for a finished cell by content address —
// the peer tier of the two-tier cache. Any failure (timeout, 404, a dead
// peer) is simply a miss.
func fetchResult(ctx context.Context, hc *http.Client, base, key string) (service.CellResult, bool) {
	ctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/cluster/result/"+key, nil)
	if err != nil {
		return service.CellResult{}, false
	}
	resp, err := hc.Do(req)
	if err != nil {
		return service.CellResult{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.CellResult{}, false
	}
	var res service.CellResult
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxWireBytes)).Decode(&res); err != nil || res.Key != key {
		return service.CellResult{}, false
	}
	return res, true
}

// executeSweepBatch dispatches one batch to the node at base and collects
// the streamed NDJSON lines. A nil error means the node answered the batch
// (individual cells may still carry errors in their lines); a
// *saturatedError means admission pushed back and the whole batch should be
// offered elsewhere; anything else is a node fault. A response that dies
// mid-stream returns the lines that landed plus the transport error — the
// already-settled cells stay settled.
func executeSweepBatch(ctx context.Context, hc *http.Client, base string, req sweepRequest) ([]sweepLine, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding sweep batch: %w", err)
	}
	ctx, cancel := context.WithTimeout(ctx, executeTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/cluster/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		lines, err := readSweepLines(resp.Body, req.Cells)
		if err != nil {
			return lines, fmt.Errorf("cluster: %s: sweep stream: %w", base, err)
		}
		return lines, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxWireBytes))
		after := time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			after = time.Duration(secs) * time.Second
		}
		return nil, &saturatedError{after: after, msg: fmt.Sprintf("cluster: %s saturated: %s", base, strings.TrimSpace(string(data)))}
	default:
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxWireBytes))
		return nil, fmt.Errorf("cluster: %s: sweep: %s: %s", base, resp.Status, strings.TrimSpace(string(data)))
	}
}

// readSweepLines decodes a sweep response stream against the cells that
// were requested. It reads at most one wire bound per cell plus one, so a
// peer cannot make the coordinator buffer without limit; it keeps only the
// first line for each requested key, dropping lines for keys nobody asked
// for; and a success line whose result names a different content address
// than its key settles as a key-mismatch cell error rather than serving the
// wrong cell. A malformed or truncated stream returns the lines accepted so
// far with the decode error.
func readSweepLines(r io.Reader, requested []service.RemoteCell) ([]sweepLine, error) {
	open := make(map[string]bool, len(requested))
	for _, rc := range requested {
		open[rc.Key] = true
	}
	dec := json.NewDecoder(io.LimitReader(r, int64(len(requested)+1)*maxWireBytes))
	var lines []sweepLine
	for {
		var ln sweepLine
		if err := dec.Decode(&ln); err != nil {
			if err == io.EOF {
				return lines, nil
			}
			return lines, err
		}
		if !open[ln.Key] {
			continue
		}
		open[ln.Key] = false
		if ln.Source != "error" && ln.Error == "" && ln.Result.Key != ln.Key {
			ln = sweepLine{Key: ln.Key, Source: "error", Error: fmt.Sprintf(
				"cluster: key mismatch: asked for %s, peer answered %s", ln.Key, ln.Result.Key)}
		}
		lines = append(lines, ln)
	}
}

// fetchPlan asks the node at base for a serialized sampling plan by plan
// key — the peer tier of the plan cache. With wait set, the server
// long-polls while it is itself mid-pass for that key. Any failure is a
// miss; the payload's own content hash is verified by the decoder, not
// here.
func fetchPlan(ctx context.Context, hc *http.Client, base, key string, wait bool) ([]byte, bool) {
	timeout := planFetchTimeout
	url := base + "/v1/cluster/plan/" + key
	if wait {
		timeout = planWaitTimeout
		url += "?wait=1"
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, false
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPlanWireBytes+1))
	if err != nil || len(data) == 0 || len(data) > maxPlanWireBytes {
		return nil, false
	}
	return data, true
}

// pushPlan replicates a serialized plan to the node at base (best effort).
func pushPlan(ctx context.Context, hc *http.Client, base, key string, data []byte) error {
	ctx, cancel := context.WithTimeout(ctx, planPushTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/cluster/plan/"+key, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: plan push to %s: %s", base, resp.Status)
	}
	return nil
}

// pushResult replicates a finished cell to the node at base (best effort).
func pushResult(ctx context.Context, hc *http.Client, base string, res service.CellResult) error {
	body, err := json.Marshal(res)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, controlTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/cluster/result", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: result push to %s: %s", base, resp.Status)
	}
	return nil
}

// Join announces a worker to the coordinator and returns the cluster's
// member map (node ID -> base URL) and membership epoch as of the join —
// apply both via Worker.ApplyPeers so a slower push from before the join
// cannot overwrite the response's fresher map.
func Join(ctx context.Context, hc *http.Client, coordinatorURL, node, selfURL string) (map[string]string, uint64, error) {
	body, err := json.Marshal(joinRequest{Node: node, URL: selfURL})
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, controlTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(coordinatorURL, "/")+"/v1/cluster/join", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxWireBytes))
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("cluster: join: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var msg peersMsg
	if err := json.Unmarshal(data, &msg); err != nil {
		return nil, 0, fmt.Errorf("cluster: decoding join response: %w", err)
	}
	return msg.Peers, msg.Epoch, nil
}

// pushPeers sends one epoch-stamped membership snapshot to one worker (best
// effort; the join response is the authoritative copy for the joiner
// itself).
func pushPeers(ctx context.Context, hc *http.Client, base string, peers map[string]string, epoch uint64) error {
	body, err := json.Marshal(peersMsg{Peers: peers, Epoch: epoch})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, controlTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/cluster/peers", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: peers push to %s: %s", base, resp.Status)
	}
	return nil
}
