//! Empty. This crate held the heartbeat restart detector; a survivor now
//! learns of a restart from the recovery handshake (`RecLogReq`), so
//! nothing is left here.
//!
//! It stays a workspace member only because `perfbench/Cargo.lock` lists it
//! as a dependency of `ftdsm`: dropping it would make the benchmark's
//! unlocked offline build rewrite that lock. The benchmark's next lock
//! refresh deletes this crate and `ftdsm`'s dependency on it.
