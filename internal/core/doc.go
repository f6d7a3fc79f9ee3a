// Package core implements the paper's contribution: a fully
// decentralized multi-resource allocation algorithm (Lejeune, Arantes,
// Sopena, Sens — INRIA RR-8689 / ICPP 2015) that serializes conflicting
// requests with per-resource counters instead of a global lock, and
// dynamically reschedules nearly-satisfied requests with a loan
// mechanism.
//
// # Mechanism
//
// Every resource has a unique token holding: the resource counter, the
// queue of pending requests (wQueue) sorted by the total order "/", the
// pending loan requests (wLoan), obsolescence stamps (lastReqC, lastCS)
// and, while lent, the lender's identity. Tokens move along a dynamic
// tree per resource (father pointers tokDir), a simplified Mueller
// prioritized token algorithm: requests travel toward the root (the
// token holder), and responses — counter values and tokens — return
// directly.
//
// A request for resources D first collects the current counter value of
// every resource in D (state waitS), assembling a vector v ∈ N^M. The
// pluggable function A folds v into a real number; (A(v), site id)
// totally orders requests, so no deadlock can form, with zero
// communication between non-conflicting processes. The requester then
// asks for each token (state waitCS) and enters its critical section
// when it owns all of them.
//
// Tree mutation in flight is handled exactly as §4.2.1 prescribes:
// request messages carry the set of already-visited sites (forwarding
// stops on a cycle), every forwarding site keeps the request in a local
// pendingReq history replayed when a token arrives, and the stamps in
// the token discard obsolete replays.
//
// # Deviations from the paper's pseudo-code
//
// Five defensive deviations, each preserving the paper's semantics:
//
//  1. A site that assigns itself a counter value from a token it just
//     received also stamps lastReqC[self], and Counter replies carry the
//     request id; both kill the late duplicate Counter replies the
//     pseudo-code leaves floating (§4.2.1 clearly intends this).
//  2. A returned borrowed token clears its Lender field when it reaches
//     the lender; otherwise the lender would forever consider its own
//     token borrowed and refuse future loans.
//  3. Token receipt while Idle (a returning loan after the lender's
//     release) must not re-enter the critical section even though
//     TRequired ⊆ TOwned trivially holds for an empty TRequired.
//  4. When a loan fails (the borrower yielded other tokens in the
//     meantime and returns the borrowed ones), the borrower re-issues
//     ReqRes for the returned resources: the lender deleted the
//     borrower's queue entries when lending, and without re-issuing, a
//     borrower whose request message left no pendingReq copies behind
//     could starve.
//  5. A token arriving home strips the owner's own stale wQueue and
//     wLoan entries (re-inserted elsewhere by pendingReq replay);
//     without it a node can head its own queue, or — after a failed
//     loan reset loanAsked — pass canLend against its own replayed
//     loan request and try to lend the token to itself.
package core
