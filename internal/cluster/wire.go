package cluster

import (
	"encoding/json"
	"net/http"

	"repro/internal/service"
)

// The cluster wire protocol is HTTP/JSON, mounted under /v1/cluster/ next
// to the public pubsd API:
//
//	POST /v1/cluster/sweep        coordinator -> worker: run a batch of cells
//	                              (one workload's machine sweep, or a single
//	                              cell as a batch of one); streaming NDJSON
//	                              response, one sweepLine per cell as it
//	                              completes
//	GET  /v1/cluster/result/{key} peer -> peer: cache-only fetch by hash
//	POST /v1/cluster/result       peer -> peer: proactive result replication
//	GET  /v1/cluster/plan/{key}   peer -> peer: cache-only serialized
//	                              sampling plan by plan key (?wait=1 long-
//	                              polls while the serving node is planning)
//	POST /v1/cluster/plan/{key}   peer -> peer: proactive plan replication
//	POST /v1/cluster/peers        coordinator -> worker: membership push
//	POST /v1/cluster/join         worker -> coordinator: announce self
//	GET  /v1/cluster/nodes        anyone -> coordinator: member map
//
// A sweep batch carries service.RemoteCells and every result payload is the
// service.CellResult schema — the same record the public API serves, which
// is what makes cluster bit-identity checkable byte for byte. Plan
// payloads are the sampling package's sealed envelope (sampling.EncodePlan):
// flate-compressed windows behind a SHA-256 content hash, so a corrupt or
// truncated plan is rejected at decode, never replayed.

// joinRequest is the body of POST /v1/cluster/join: a worker announcing
// its stable node ID and the base URL peers reach it at.
type joinRequest struct {
	Node string `json:"node"`
	URL  string `json:"url"`
}

// peersMsg carries the full member map (node ID -> base URL) plus the
// coordinator's membership epoch, a strictly increasing stamp workers use
// to discard snapshots delivered out of order (broadcasts are async, so two
// rapid joins can land reversed). The join response, the membership push,
// and the nodes listing all share it; epoch 0 means unversioned.
type peersMsg struct {
	Peers map[string]string `json:"peers"`
	Epoch uint64            `json:"epoch,omitempty"`
}

// sweepRequest is the body of POST /v1/cluster/sweep: every still-unresolved
// cell of one workload's machine sweep owned by the receiving node (or one
// single cell, with no plan coordinates), plus the sampling-plan
// coordinates. PlanKey is the plan content address all cells share; Planner
// is the node ID the coordinator designated to pay the workload's one
// functional pass, and PlannerURL its base URL as of the ring snapshot the
// batch was grouped under — the receiver plans immediately if the planner
// is itself, and otherwise long-polls PlannerURL's plan endpoint before
// falling back to a local pass, so finding the planner never depends on the
// receiver's own (asynchronously pushed) membership view.
type sweepRequest struct {
	Cells      []service.RemoteCell `json:"cells"`
	PlanKey    string               `json:"plan_key,omitempty"`
	Planner    string               `json:"planner,omitempty"`
	PlannerURL string               `json:"planner_url,omitempty"`
}

// sweepLine is one NDJSON line of the sweep response, written as the cell
// it settles completes. Source says which tier answered: "cache" (the
// worker's own store), "peer" (a peer fetch by hash), "executed" (the
// worker's Submit path ran it — which may itself have been answered by the
// worker's memo or checkpoint without a fresh simulation), or "error".
// Simulation failures travel as Source "error" with Error set inside a 200
// stream: the cell failed, the node did not, and the coordinator must not
// drop a healthy node over a bad spec.
type sweepLine struct {
	Key    string             `json:"key"`
	Result service.CellResult `json:"result,omitempty"`
	Source string             `json:"source"`
	Error  string             `json:"error,omitempty"`
}

// maxWireBytes bounds every cluster request body; a RemoteCell is a few
// hundred bytes and a member map a few KB. Serialized sampling plans are
// the exception — dirty pages plus ~17 B/instruction of predecoded trace —
// and get their own, far larger bound.
const (
	maxWireBytes     = 1 << 20
	maxPlanWireBytes = 1 << 28
)

type wireError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, wireError{Error: err.Error()})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWireBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
