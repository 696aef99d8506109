package thinp

import (
	"errors"
	"fmt"
)

// PoolMode is the pool health state — the reproduction of dm-thin's pool
// mode ladder (PM_WRITE → PM_OUT_OF_DATA_SPACE → PM_READ_ONLY → PM_FAIL).
// Severity only ever increases, with one documented exception: an
// out-of-data-space pool recovers to Write when discard or GC reclaim (or
// a commit releasing quarantined frees) makes blocks allocatable again.
type PoolMode int

// Pool health modes, in increasing severity.
const (
	// PoolWrite is normal operation: all operations permitted.
	PoolWrite PoolMode = iota
	// PoolOutOfDataSpace means provisioning failed for lack of free data
	// blocks. Reads, overwrites of provisioned blocks, discards and
	// commits still work; writes needing provisioning fail at once with
	// ErrNoSpace (dm-thin's error_if_no_space). The pool returns to Write
	// on reclaim.
	PoolOutOfDataSpace
	// PoolReadOnly means a metadata commit could not reach the device:
	// nothing new can become durable, so every mutation fails with
	// ErrReadOnlyMode while reads keep serving the current state. The
	// failed commit's delta was merged back intact (the error-path
	// merge-back), so a reopen recovers the last durable transaction.
	PoolReadOnly
	// PoolFail means the in-memory state is no longer trustworthy (a
	// post-flip bookkeeping failure). All I/O fails; only a reopen —
	// which reloads committed state from the metadata device — helps.
	PoolFail
)

// String implements fmt.Stringer.
func (m PoolMode) String() string {
	switch m {
	case PoolWrite:
		return "write"
	case PoolOutOfDataSpace:
		return "out-of-data-space"
	case PoolReadOnly:
		return "read-only"
	case PoolFail:
		return "fail"
	default:
		return fmt.Sprintf("PoolMode(%d)", int(m))
	}
}

// Mode-ladder errors.
var (
	// ErrReadOnlyMode reports a mutation on a pool degraded to
	// PoolReadOnly by a metadata commit failure.
	ErrReadOnlyMode = errors.New("thinp: pool is read-only")
	// ErrPoolFail reports any operation on a pool in PoolFail.
	ErrPoolFail = errors.New("thinp: pool has failed")
)

// Mode returns the pool's current health mode.
func (p *Pool) Mode() PoolMode {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.mode
}

// Status returns the pool's health mode and the reason for the last
// degradation (empty in PoolWrite).
func (p *Pool) Status() (PoolMode, string) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.mode, p.modeReason
}

// setModeLocked moves the ladder. Transitions only escalate — a stale
// caller cannot un-degrade the pool — except through recoverSpaceLocked,
// which owns the one legal de-escalation. Caller holds p.mu exclusively.
func (p *Pool) setModeLocked(m PoolMode, reason string) {
	if m <= p.mode {
		return
	}
	p.mode = m
	p.modeReason = reason
	// Health-ladder moves feed the telemetry event log. The entry names
	// the shared pool machinery only — reasons describe device or space
	// state, never a thin device.
	p.m.Events.Append("mode", fmt.Sprintf("%s: %s", m, reason))
}

// checkMutableLocked gates every metadata-mutating entry point (writes,
// discards, thin create/delete, commits). Caller holds p.mu (either mode).
func (p *Pool) checkMutableLocked() error {
	switch p.mode {
	case PoolFail:
		return fmt.Errorf("%w (%s)", ErrPoolFail, p.modeReason)
	case PoolReadOnly:
		return fmt.Errorf("%w (%s)", ErrReadOnlyMode, p.modeReason)
	}
	return nil
}

// checkReadableLocked gates reads: only PoolFail stops them — a read-only
// pool keeps serving data, that is its point. Caller holds p.mu.
func (p *Pool) checkReadableLocked() error {
	if p.mode == PoolFail {
		return fmt.Errorf("%w (%s)", ErrPoolFail, p.modeReason)
	}
	return nil
}

// enterNoSpaceLocked records a provisioning failure for lack of data
// space. Caller holds p.mu exclusively.
func (p *Pool) enterNoSpaceLocked() {
	p.setModeLocked(PoolOutOfDataSpace, "data space exhausted")
}

// maybeRecoverSpaceLocked returns the pool to Write when it sat in
// OutOfDataSpace and blocks became allocatable again (a discard within the
// transaction, or a commit releasing quarantined frees). Caller holds p.mu
// exclusively.
func (p *Pool) maybeRecoverSpaceLocked() {
	if p.mode == PoolOutOfDataSpace && p.allocBM.Free() > 0 {
		p.mode = PoolWrite
		p.modeReason = ""
		p.m.Events.Append("recovery", "out-of-data-space: blocks reclaimed, pool back to write")
	}
}

// noteNoSpace records a provisioning failure for lack of data space from a
// fine-grained (read-locked) writer, which cannot mutate the mode ladder in
// place. Called with no pool lock held; it takes p.mu exclusively, enters
// OutOfDataSpace, and immediately runs the recovery check — the failed
// request's own unwind may already have freed blocks, and skipping the
// check would leave the pool parked until the next discard.
func (p *Pool) noteNoSpace() {
	p.mu.Lock()
	p.enterNoSpaceLocked()
	p.maybeRecoverSpaceLocked()
	p.mu.Unlock()
}

// maybeRecoverSpace is the lock-acquiring wrapper fine-grained paths use to
// poke space recovery after releasing blocks under the shared lock. Called
// with no pool lock held.
func (p *Pool) maybeRecoverSpace() {
	p.mu.Lock()
	p.maybeRecoverSpaceLocked()
	p.mu.Unlock()
}
