package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"gptattr/internal/fault"
	"gptattr/internal/serve"
)

// Evasion jobs are stateful: the replica that accepts a submit holds
// the job's entire lifecycle, so the router pins each job to its ring
// owner and NEVER hedges or fails an evade dispatch over — a duplicate
// dispatch would run the search twice and hand the client an ID its
// next poll cannot find. Job IDs leave the router namespaced
// "replica/jobID"; a poll parses the prefix and goes straight back to
// that replica. A replica lost mid-job takes its jobs with it (shared-
// nothing fleet): polls for them answer 503, clients resubmit, and the
// ring routes the retry to a healthy owner.

// EvadeEnabled implements serve.Evader: the router always exposes the
// endpoints; the owning replica is the authority on whether evasion
// is actually served (its 404 passes through).
func (rt *Router) EvadeEnabled() bool { return true }

// EvadeSubmit implements serve.Evader: owner-routed, un-hedged
// forwarding of one search submit.
func (rt *Router) EvadeSubmit(ctx context.Context, req serve.EvadeRequest) (serve.EvadeJobResponse, error) {
	var out serve.EvadeJobResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	rt.ctr.evadeForwards.Inc()
	if err := fault.Hit(PointForward); err != nil {
		return out, &serve.StatusError{Code: http.StatusServiceUnavailable, Msg: "router degraded: " + err.Error()}
	}
	// Note: no flip gate. A search outlives any reload window, so the
	// generation-consistency guarantee of the inference path cannot and
	// does not apply here; the replica's answer carries its own truth.
	order := rt.pickOrder(req.Source)
	if len(order) == 0 {
		return out, &serve.StatusError{Code: http.StatusServiceUnavailable, Msg: "no alive replicas"}
	}
	name := order[0]
	m := rt.members[name]
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	if err := fault.Hit(PointForwardReplica(name)); err != nil {
		rt.replicaDown(name, err)
		return out, &serve.StatusError{Code: http.StatusServiceUnavailable,
			Msg: fmt.Sprintf("evasion owner %s unavailable: %v", name, err)}
	}
	status, rbody, err := m.rep.Forward(ctx, "evade", serve.RequestIDFrom(ctx), body)
	if err != nil {
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		rt.replicaDown(name, err)
		return out, &serve.StatusError{Code: http.StatusServiceUnavailable,
			Msg: fmt.Sprintf("evasion owner %s unavailable: %v", name, err)}
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		// The owner answered: its verdict (429, 503, 422, ...) passes
		// through.
		return out, &serve.StatusError{Code: status, Msg: errorBody(rbody)}
	}
	if err := json.Unmarshal(rbody, &out); err != nil {
		return out, &serve.StatusError{Code: http.StatusBadGateway, Msg: "bad replica response: " + err.Error()}
	}
	out.JobID = name + "/" + out.JobID
	return out, nil
}

// EvadeStatus implements serve.Evader: the namespaced ID names the
// replica holding the job; the poll goes there and nowhere else.
func (rt *Router) EvadeStatus(ctx context.Context, id string, wait bool) (serve.EvadeJobResponse, error) {
	var out serve.EvadeJobResponse
	name, jobID, ok := strings.Cut(id, "/")
	if !ok || name == "" || jobID == "" {
		return out, &serve.StatusError{Code: http.StatusBadRequest,
			Msg: fmt.Sprintf("malformed fleet job id %q (want replica/job)", id)}
	}
	m, exists := rt.members[name]
	if !exists {
		return out, &serve.StatusError{Code: http.StatusNotFound, Msg: "unknown replica " + name}
	}
	status, rbody, err := m.rep.EvadeStatus(ctx, jobID, wait, serve.RequestIDFrom(ctx))
	if err != nil {
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		rt.replicaDown(name, err)
		return out, &serve.StatusError{Code: http.StatusServiceUnavailable,
			Msg: fmt.Sprintf("evasion job %s lost: replica %s unreachable: %v", id, name, err)}
	}
	if status != http.StatusOK {
		return out, &serve.StatusError{Code: status, Msg: errorBody(rbody)}
	}
	if err := json.Unmarshal(rbody, &out); err != nil {
		return out, &serve.StatusError{Code: http.StatusBadGateway, Msg: "bad replica response: " + err.Error()}
	}
	out.JobID = name + "/" + out.JobID
	return out, nil
}
