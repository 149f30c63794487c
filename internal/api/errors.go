package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"mmwave/internal/checkpoint"
	"mmwave/internal/core"
	"mmwave/internal/host"
	"mmwave/internal/pnc"
)

// Code is a stable machine-readable error identifier. Codes are part
// of the wire contract: clients branch on them, so within a version
// they are append-only and their HTTP mapping never changes.
type Code string

// The error codes, one per member of the repo's error taxonomy plus
// the transport-level conditions only a server can produce.
const (
	// CodeBadRequest: the request body or parameters did not parse or
	// validate.
	CodeBadRequest Code = "bad-request"
	// CodeNotFound: no such cell (or the cell was evicted).
	CodeNotFound Code = "not-found"
	// CodeAdmission: host.ErrAdmission — the admission policy refused
	// the cell (capacity, duplicate ID, invalid spec).
	CodeAdmission Code = "admission-refused"
	// CodeUnservable: core.ErrUnservable — a link's demand can never
	// be served even transmitting alone at full power.
	CodeUnservable Code = "unservable"
	// CodeInfeasible: core.ErrInfeasible — the master problem has no
	// feasible point.
	CodeInfeasible Code = "infeasible"
	// CodeBudgetExceeded: core.ErrBudgetExceeded — the solve was
	// truncated by its budget; the plan returned is the anytime plan.
	CodeBudgetExceeded Code = "budget-exceeded"
	// CodeControlLoss: pnc.ErrControlLoss — a control frame was lost
	// beyond the retry budget.
	CodeControlLoss Code = "control-loss"
	// CodeStaleState: pnc.ErrStaleState — link state aged beyond the
	// staleness policy.
	CodeStaleState Code = "stale-state"
	// CodeCheckpointCorrupt: checkpoint.ErrCorrupt — a snapshot failed
	// its integrity check.
	CodeCheckpointCorrupt Code = "checkpoint-corrupt"
	// CodeCheckpointIncompatible: checkpoint.ErrIncompatible — a
	// snapshot's version or fingerprint does not match this cell.
	CodeCheckpointIncompatible Code = "checkpoint-incompatible"
	// CodeDraining: the server is shutting down and refuses mutating
	// requests.
	CodeDraining Code = "draining"
	// CodeInternal: anything unmapped.
	CodeInternal Code = "internal"
)

// HTTPStatus returns the status the code maps to. The mapping is
// frozen per version:
//
//	bad-request              400
//	not-found                404
//	stale-state              409 (conflict with newer state)
//	checkpoint-incompatible  409
//	unservable               422 (well-formed, unsatisfiable)
//	infeasible               422
//	admission-refused        429 (capacity; retry after evictions)
//	internal                 500
//	checkpoint-corrupt       500
//	control-loss             502 (downstream control plane failed)
//	draining                 503
//	budget-exceeded          504 (deadline hit; anytime result inside)
func (c Code) HTTPStatus() int {
	switch c {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeStaleState, CodeCheckpointIncompatible:
		return http.StatusConflict
	case CodeUnservable, CodeInfeasible:
		return http.StatusUnprocessableEntity
	case CodeAdmission:
		return http.StatusTooManyRequests
	case CodeControlLoss:
		return http.StatusBadGateway
	case CodeDraining:
		return http.StatusServiceUnavailable
	case CodeBudgetExceeded:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// taxonomy pairs every code that has an in-process counterpart with
// its sentinel. Code.sentinel reads it one way and CodeForError the
// other, which is what makes errors.Is work across the wire. Order
// matters only to CodeForError: an error wrapping two sentinels maps
// to the first listed.
var taxonomy = []struct {
	code     Code
	sentinel error
}{
	{CodeAdmission, host.ErrAdmission},
	{CodeUnservable, core.ErrUnservable},
	{CodeInfeasible, core.ErrInfeasible},
	{CodeBudgetExceeded, core.ErrBudgetExceeded},
	{CodeControlLoss, pnc.ErrControlLoss},
	{CodeStaleState, pnc.ErrStaleState},
	{CodeCheckpointCorrupt, checkpoint.ErrCorrupt},
	{CodeCheckpointIncompatible, checkpoint.ErrIncompatible},
}

// sentinel returns the taxonomy sentinel behind a code, or nil for
// codes with no in-process counterpart.
func (c Code) sentinel() error {
	for _, t := range taxonomy {
		if t.code == c {
			return t.sentinel
		}
	}
	return nil
}

// Error is the wire error: a stable code plus a human-readable
// message. It unwraps to the taxonomy sentinel its code maps from, so
// a client can write errors.Is(err, core.ErrInfeasible) against an
// error that crossed the HTTP boundary.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Message == "" {
		return string(e.Code)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Unwrap exposes the taxonomy sentinel behind the code (nil for
// transport-only codes).
func (e *Error) Unwrap() error { return e.Code.sentinel() }

// CodeForError maps any error onto its wire code by walking the
// taxonomy with errors.Is. Unrecognized errors map to CodeInternal.
func CodeForError(err error) Code {
	var apiErr *Error
	if errors.As(err, &apiErr) {
		return apiErr.Code
	}
	for _, t := range taxonomy {
		if errors.Is(err, t.sentinel) {
			return t.code
		}
	}
	return CodeInternal
}

// envelope is the error response body: {"error":{"code":…,"message":…}}.
type envelope struct {
	Error *Error `json:"error"`
}

// WriteError renders err as the wire error envelope with its mapped
// status. An err that is already an *Error keeps its code; anything
// else is classified by CodeForError.
func WriteError(w http.ResponseWriter, err error) {
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		apiErr = &Error{Code: CodeForError(err), Message: err.Error()}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(apiErr.Code.HTTPStatus())
	_ = json.NewEncoder(w).Encode(envelope{Error: apiErr})
}

// DecodeError reconstructs the wire error from a non-2xx response
// body. Bodies that do not carry the envelope produce a CodeInternal
// error quoting the raw body.
func DecodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env envelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		return env.Error
	}
	return &Error{
		Code:    CodeInternal,
		Message: fmt.Sprintf("HTTP %d: %s", resp.StatusCode, string(body)),
	}
}
