// Package serveclient is the resilient client for the exaserve HTTP job
// API (introduced in PR 5; see DESIGN.md §10). Where internal/serve makes
// the server survive faults, this package makes a caller survive a faulty
// server: it retries transport errors and 5xx responses with capped
// exponential backoff plus jitter, honors the server's Retry-After on 429
// and 503, propagates context deadlines through every wait, and — the
// property the whole design leans on — retries idempotently.
//
// Idempotency comes from the server's spec canonicalization: a resubmitted
// spec hashes to the same cache key, so a retry joins the still-running
// flight, hits the result cache, or resumes the failed attempt from its
// checkpoint snapshot rather than launching duplicate work. The client
// therefore resubmits failed and vanished jobs freely, up to its attempt
// budget.
//
// Run also verifies every result end to end: the fetched CSV's SHA-256
// must equal the digest the job view advertises, so an injected fault can
// delay an answer but never corrupt one unnoticed. `exaload scenario
// chaos` drives this client against a chaos-injected server
// (internal/chaos) and asserts exactly that.
package serveclient
