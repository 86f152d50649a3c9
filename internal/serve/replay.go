package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"hardharvest/internal/jsonx"
)

// Replay reconstructs a served run from its action log: the header line
// rebuilds the simulation, and each action is re-applied at its logged
// barrier while the same barrier loop drives the engine to the horizon.
// Because action application is a pure function of (config, action, barrier
// time) and stepping is event-sequence-identical to a monolithic run, the
// returned summary is byte-identical to the one the live run printed.
func Replay(rd io.Reader) (string, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22) // fault plans can be large
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return "", fmt.Errorf("serve: replay: %w", err)
		}
		return "", fmt.Errorf("serve: replay: empty action log")
	}
	// Malformed JSON and a well-formed header with the wrong magic are
	// different operator mistakes (a corrupted log vs. not an action log at
	// all), so they get distinct, line-numbered diagnostics.
	var hdr logHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return "", fmt.Errorf("serve: replay: line 1: malformed header JSON: %s",
			jsonx.DescribeError(sc.Bytes(), err))
	}
	if hdr.Magic != 1 {
		return "", fmt.Errorf("serve: replay: line 1: not an hhsim serve action log "+
			"(want hhsim_serve_log=1, got %q)", bytes.TrimSpace(sc.Bytes()))
	}
	var actions []Action
	for line := 2; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var a Action
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			return "", fmt.Errorf("serve: replay: line %d: malformed action JSON: %s",
				line, jsonx.DescribeError(sc.Bytes(), err))
		}
		if err := a.validate(); err != nil {
			return "", fmt.Errorf("serve: replay: line %d: %w", line, err)
		}
		if n := len(actions); n > 0 && a.At < actions[n-1].At {
			return "", fmt.Errorf("serve: replay: line %d: actions out of order at t=%dps", line, a.At)
		}
		actions = append(actions, a)
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("serve: replay: %w", err)
	}
	return ReplayActions(hdr.Config, actions)
}

// ReplayActions drives cfg to completion, applying each action at its
// recorded barrier, and returns the deterministic summary. A nil/empty
// action list replays a zero-action run — the batch-equivalence baseline.
func ReplayActions(cfg RunConfig, actions []Action) (string, error) {
	r, err := NewRunner(cfg, nil, 0)
	if err != nil {
		return "", err
	}
	next := 0
	for {
		for next < len(actions) && actions[next].At == int64(r.barrier) {
			if err := r.applyAction(actions[next], r.barrier); err != nil {
				return "", fmt.Errorf("serve: replay at t=%v: %w", r.barrier, err)
			}
			r.applied++
			next++
		}
		if next < len(actions) && actions[next].At < int64(r.barrier) {
			return "", fmt.Errorf("serve: replay: action at t=%dps is not on a %v barrier",
				actions[next].At, r.step)
		}
		if r.advance() {
			break
		}
	}
	if next < len(actions) {
		return "", fmt.Errorf("serve: replay: %d actions logged past the horizon", len(actions)-next)
	}
	return r.renderFinish(), nil
}
