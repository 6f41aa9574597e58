//! The replay client: drives a recorded simulator workload against a
//! running lockstep service and checks every answer.
//!
//! This is the service half of the replay-parity contract (DESIGN.md
//! §14): `crates/sim` proves record → `LiveWorld` parity at the engine
//! level; this module proves the *service* — sessions, admission queue,
//! barriers, reply channels — delivers the same inputs in the same
//! order, by asserting the answers (ids + `AnswerQuality`) coming back
//! over the wire equal the recording, per nonce.

use crate::{QueryRequest, QueryTag, ServeError, ServiceHandle};
use airshare_sim::{QueryAnswer, TrafficTrace};
use std::sync::mpsc;
use std::time::Duration;

/// How long to wait for any single answer before declaring the replay
/// wedged (generous: batches execute as soon as their fence lands).
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// What a replay run observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Queries submitted (every recorded query, measured or not).
    pub submitted: u64,
    /// Answers received before timeout.
    pub answered: u64,
    /// Submissions that bounced off a full queue and were retried —
    /// nonzero exercises the backpressure path, never a failure.
    pub backpressure_retries: u64,
    /// Answers whose POI id set diverged from the recording.
    pub id_mismatches: u64,
    /// Answers whose [`airshare_sim::AnswerQuality`] diverged.
    pub quality_mismatches: u64,
    /// Answers that never arrived.
    pub lost: u64,
}

impl ReplayReport {
    /// A clean replay: everything answered, nothing diverged.
    pub fn is_clean(&self) -> bool {
        self.submitted == self.answered
            && self.id_mismatches == 0
            && self.quality_mismatches == 0
            && self.lost == 0
    }
}

/// Replays a recorded workload against a lockstep service and verifies
/// every answer against the recording.
///
/// Drives the service in the trace's barrier order: initial sessions,
/// then per epoch — churn, position updates, the epoch's queries, and
/// the fence that releases the barrier. Submissions that hit
/// backpressure are retried (counted). Answers are collected after the
/// final fence; the caller still owns the service and should `drain` it
/// afterwards.
pub fn replay(handle: &ServiceHandle, trace: &TrafficTrace) -> Result<ReplayReport, ServeError> {
    let mut report = ReplayReport::default();
    let mut rxs: Vec<(usize, mpsc::Receiver<QueryAnswer>)> = Vec::new();

    for (host, &up) in trace.initial_online.iter().enumerate() {
        if up {
            handle.register(host, None)?;
        }
    }

    // `run_engine` records queries in epoch order, so one cursor walks
    // them beside the epochs.
    let mut queries = trace.queries.iter().enumerate().peekable();
    for er in &trace.epochs {
        for &(host, planned_epoch, up) in &er.churn {
            if up {
                handle.reconnect(host as usize, planned_epoch, Some(er.epoch))?;
            } else {
                handle.disconnect(host as usize, planned_epoch, Some(er.epoch))?;
            }
        }
        // Traces carry position deltas; the live world keeps each
        // host's last position, so applying them in epoch order
        // reconstructs the full vector.
        for &(host, pos) in &er.moved {
            handle.update_position(host as usize, pos, Some(er.epoch))?;
        }
        // A query whose epoch has no record is not replayed.
        while queries.next_if(|(_, q)| q.epoch < er.epoch).is_some() {}
        while let Some((qi, q)) = queries.next_if(|(_, q)| q.epoch == er.epoch) {
            let req = QueryRequest {
                host: q.host as usize,
                pos: q.pos,
                heading: q.heading,
                spec: q.spec,
                tag: Some(QueryTag {
                    nonce: q.nonce,
                    at_min: q.at_min,
                    epoch: q.epoch,
                }),
            };
            // Backpressure loop: a bounced submission waits for the
            // scheduler to work the queue down, then retries.
            let rx = loop {
                match handle.submit(req.clone()) {
                    Ok(rx) => break rx,
                    Err(ServeError::QueueFull { .. }) => {
                        report.backpressure_retries += 1;
                        std::thread::sleep(Duration::from_micros(500));
                    }
                    Err(e) => return Err(e),
                }
            };
            report.submitted += 1;
            rxs.push((qi, rx));
        }
        handle.fence(er.epoch);
    }

    for (qi, rx) in rxs {
        let want = &trace.queries[qi];
        match rx.recv_timeout(ANSWER_TIMEOUT) {
            Ok(got) => {
                report.answered += 1;
                if got.ids != want.ids {
                    report.id_mismatches += 1;
                }
                if got.quality != want.quality {
                    report.quality_mismatches += 1;
                }
            }
            Err(_) => report.lost += 1,
        }
    }
    Ok(report)
}
