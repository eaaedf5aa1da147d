//! Streaming sessions: long-lived [`StreamingProfile`]s owned by the
//! service, fed by append requests. Each session wraps
//! [`mdmp_core::streaming`] — FP64 sessions therefore match the batch
//! result exactly no matter how arrivals are chunked.
//!
//! # Locking model
//!
//! The manager keeps a table of `Arc<Mutex<StreamingProfile>>`. The table
//! mutex is held only long enough to fetch (or insert/remove) a session's
//! `Arc` — never across an append. The append itself runs under the
//! *session's own* mutex, so appends to distinct sessions proceed in
//! parallel while same-session appends serialize in arrival order. Closing
//! a session removes its `Arc` from the table; an append already holding a
//! clone of that `Arc` finishes on the detached session and its result is
//! simply discarded with it. The `vendor/interleave` model in
//! `tests/interleave.rs` explores this protocol exhaustively.

use crate::sync;
use mdmp_core::{MatrixProfile, MdmpConfig, StreamingProfile};
use mdmp_data::MultiDimSeries;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Session identifier.
pub type SessionId = u64;

/// Which series an append extends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendSide {
    /// Extend the query series (adds profile columns).
    Query,
    /// Extend the reference series (can improve every column).
    Reference,
}

impl std::str::FromStr for AppendSide {
    type Err = String;

    fn from_str(s: &str) -> Result<AppendSide, String> {
        match s.to_ascii_lowercase().as_str() {
            "query" => Ok(AppendSide::Query),
            "reference" => Ok(AppendSide::Reference),
            other => Err(format!("unknown side '{other}' (query, reference)")),
        }
    }
}

/// A shape snapshot of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSummary {
    /// Session id.
    pub id: SessionId,
    /// Profile columns (query segments).
    pub n_query: usize,
    /// Reference segments.
    pub n_reference: usize,
    /// Dimensionality.
    pub dims: usize,
}

/// What one append did — the summary plus the accounting delta the service
/// layer turns into streaming metrics.
#[derive(Debug, Clone, Copy)]
pub struct AppendReport {
    /// Post-append session shape.
    pub summary: SessionSummary,
    /// Segments the append added to the profile (delta tile extent on the
    /// grown side).
    pub appended_segments: u64,
    /// Statistics segments served from the session's side cache.
    pub reused_segments: u64,
    /// Statistics segments computed fresh for the delta window.
    pub fresh_segments: u64,
    /// Whether the append reused a cached precalculation unit.
    pub reused_precalc: bool,
    /// Wall seconds the append took.
    pub seconds: f64,
}

/// The service's open streaming sessions.
#[derive(Debug, Default)]
pub struct SessionManager {
    next_id: AtomicU64,
    sessions: Mutex<BTreeMap<SessionId, Arc<Mutex<StreamingProfile>>>>,
}

impl SessionManager {
    /// An empty manager.
    pub fn new() -> SessionManager {
        SessionManager::default()
    }

    /// Fetch a session's handle without holding the table lock afterwards.
    fn session(&self, id: SessionId) -> Result<Arc<Mutex<StreamingProfile>>, String> {
        sync::lock(&self.sessions)
            .get(&id)
            .cloned()
            .ok_or_else(|| format!("unknown session {id}"))
    }

    /// Open a session over initial series; the first batch is computed
    /// immediately.
    pub fn open(
        &self,
        reference: MultiDimSeries,
        query: MultiDimSeries,
        cfg: MdmpConfig,
    ) -> Result<SessionSummary, String> {
        let sp = StreamingProfile::new(reference, query, cfg).map_err(|e| e.to_string())?;
        // relaxed-ok: id allocation only needs uniqueness; the table
        // insert below is ordered by its mutex.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let summary = SessionSummary {
            id,
            n_query: sp.n_query(),
            n_reference: sp.n_reference(),
            dims: sp.profile().dims(),
        };
        sync::lock(&self.sessions).insert(id, Arc::new(Mutex::new(sp)));
        Ok(summary)
    }

    /// Append per-dimension samples to one side of a session. Holds only
    /// the target session's lock while the delta tile runs, so appends to
    /// other sessions are not blocked.
    pub fn append(
        &self,
        id: SessionId,
        side: AppendSide,
        samples: &[Vec<f64>],
    ) -> Result<AppendReport, String> {
        let session = self.session(id)?;
        let started = Instant::now();
        let mut sp = sync::lock(&session);
        let before = sp.stats();
        let result = match side {
            AppendSide::Query => sp.append_query(samples),
            AppendSide::Reference => sp.append_reference(samples),
        };
        result.map_err(|e| e.to_string())?;
        let after = sp.stats();
        Ok(AppendReport {
            summary: SessionSummary {
                id,
                n_query: sp.n_query(),
                n_reference: sp.n_reference(),
                dims: sp.profile().dims(),
            },
            appended_segments: after.segments_extended - before.segments_extended,
            reused_segments: after.segments_reused - before.segments_reused,
            fresh_segments: after.segments_fresh - before.segments_fresh,
            reused_precalc: after.incremental_appends > before.incremental_appends,
            seconds: started.elapsed().as_secs_f64(),
        })
    }

    /// The session's current profile (cloned snapshot).
    pub fn profile(&self, id: SessionId) -> Option<MatrixProfile> {
        let session = self.session(id).ok()?;
        let sp = sync::lock(&session);
        Some(sp.profile().clone())
    }

    /// The session's shape.
    pub fn summary(&self, id: SessionId) -> Option<SessionSummary> {
        let session = self.session(id).ok()?;
        let sp = sync::lock(&session);
        Some(SessionSummary {
            id,
            n_query: sp.n_query(),
            n_reference: sp.n_reference(),
            dims: sp.profile().dims(),
        })
    }

    /// Close a session; returns whether it existed. An append running
    /// concurrently finishes on the detached session state.
    pub fn close(&self, id: SessionId) -> bool {
        sync::lock(&self.sessions).remove(&id).is_some()
    }

    /// Open sessions right now.
    pub fn len(&self) -> usize {
        sync::lock(&self.sessions).len()
    }

    /// Whether no session is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdmp_precision::PrecisionMode;

    fn wave(offset: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| ((t + offset) as f64 * 0.31).sin() + 0.01 * (t + offset) as f64)
            .collect()
    }

    #[test]
    fn open_append_close_lifecycle() {
        let mgr = SessionManager::new();
        let cfg = MdmpConfig::new(8, PrecisionMode::Fp64);
        let s = mgr
            .open(
                MultiDimSeries::univariate(wave(0, 96)),
                MultiDimSeries::univariate(wave(30, 64)),
                cfg,
            )
            .unwrap();
        assert_eq!(s.n_query, 57);
        let r2 = mgr
            .append(s.id, AppendSide::Query, &[wave(94, 16)])
            .unwrap();
        assert_eq!(r2.summary.n_query, 57 + 16);
        assert_eq!(r2.appended_segments, 16);
        assert!(r2.reused_precalc);
        // A query append reuses every cached reference segment (n_r = 89)
        // and computes statistics only for the 16 new query segments.
        assert_eq!(s.n_reference, 89);
        assert_eq!(r2.reused_segments, 89);
        assert_eq!(r2.fresh_segments, 16);
        let r3 = mgr
            .append(s.id, AppendSide::Reference, &[wave(200, 12)])
            .unwrap();
        assert_eq!(r3.summary.n_reference, s.n_reference + 12);
        // The mirror image: the grown query side (n_q = 73) is reused and
        // only the 12 new reference segments are fresh.
        assert_eq!(r3.reused_segments, 73);
        assert_eq!(r3.fresh_segments, 12);
        assert!(mgr.profile(s.id).is_some());
        assert!(mgr.close(s.id));
        assert!(!mgr.close(s.id));
        assert!(mgr.is_empty());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mgr = SessionManager::new();
        let cfg = MdmpConfig::new(8, PrecisionMode::Fp64);
        let s = mgr
            .open(
                MultiDimSeries::univariate(wave(0, 64)),
                MultiDimSeries::univariate(wave(9, 64)),
                cfg,
            )
            .unwrap();
        let err = mgr
            .append(s.id, AppendSide::Query, &[wave(0, 8), wave(1, 8)])
            .unwrap_err();
        assert!(err.contains("dimension"));
        assert!(mgr.append(999, AppendSide::Query, &[wave(0, 8)]).is_err());
    }

    #[test]
    fn concurrent_appends_to_distinct_sessions_make_progress() {
        let mgr = Arc::new(SessionManager::new());
        let cfg = MdmpConfig::new(8, PrecisionMode::Fp64);
        let mut ids = Vec::new();
        for i in 0..4 {
            let s = mgr
                .open(
                    MultiDimSeries::univariate(wave(i * 11, 80)),
                    MultiDimSeries::univariate(wave(i * 7 + 3, 48)),
                    cfg.clone(),
                )
                .unwrap();
            ids.push(s.id);
        }
        std::thread::scope(|scope| {
            for &id in &ids {
                let mgr = Arc::clone(&mgr);
                scope.spawn(move || {
                    for round in 0..8 {
                        mgr.append(id, AppendSide::Query, &[wave(round * 5, 4)])
                            .unwrap();
                    }
                });
            }
        });
        for &id in &ids {
            let s = mgr.summary(id).unwrap();
            assert_eq!(s.n_query, (48 - 8 + 1) + 8 * 4);
        }
    }

    #[test]
    fn close_during_append_leaves_manager_consistent() {
        let mgr = Arc::new(SessionManager::new());
        let cfg = MdmpConfig::new(8, PrecisionMode::Fp64);
        let s = mgr
            .open(
                MultiDimSeries::univariate(wave(0, 96)),
                MultiDimSeries::univariate(wave(13, 64)),
                cfg,
            )
            .unwrap();
        std::thread::scope(|scope| {
            let appender = {
                let mgr = Arc::clone(&mgr);
                scope.spawn(move || {
                    // Races against close: either outcome (applied to the
                    // detached session, or unknown-session error) is fine —
                    // the manager itself must stay consistent.
                    let _ = mgr.append(s.id, AppendSide::Query, &[wave(90, 8)]);
                })
            };
            let closer = {
                let mgr = Arc::clone(&mgr);
                scope.spawn(move || mgr.close(s.id))
            };
            appender.join().unwrap();
            let _ = closer.join().unwrap();
        });
        assert!(mgr.is_empty());
        assert!(mgr.summary(s.id).is_none());
    }
}
