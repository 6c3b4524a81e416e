//! The BeeGFS system facade.
//!
//! Owns the platform description, the management and metadata services,
//! and the per-directory striping configuration; hands out striped
//! [`FileHandle`]s. Workload engines (the `ior` crate) combine a
//! `BeeGfs` with a `cluster::Fabric` to simulate actual I/O.

use crate::chooser::{ChooserKind, TargetSelector};
use crate::error::{RestripeError, StateError, StripeError};
use crate::file::FileHandle;
use crate::services::{ManagementService, MetaService, TargetState};
use crate::stripe::StripePattern;
use cluster::{Platform, TargetId};
use simcore::rng::StreamRng;
use simcore::time::SimDuration;

/// A directory's striping configuration (what `beegfs-ctl --setpattern`
/// controls on a real deployment — administrator-only, per §I).
#[derive(Debug, Clone)]
pub struct DirConfig {
    /// Stripe count and chunk size.
    pub pattern: StripePattern,
    /// Target-selection heuristic.
    pub chooser: ChooserKind,
}

impl DirConfig {
    /// PlaFRIM's deployed configuration: stripe 4, 512 KiB, round-robin.
    pub fn plafrim_default() -> Self {
        DirConfig {
            pattern: StripePattern::PLAFRIM_DEFAULT,
            chooser: ChooserKind::RoundRobin,
        }
    }

    /// The paper's recommendation: stripe over *all* targets (lesson 6),
    /// which makes the allocation balanced regardless of the heuristic.
    pub fn paper_recommended(platform: &Platform) -> Self {
        DirConfig {
            pattern: StripePattern::new(
                platform.total_targets() as u32,
                StripePattern::PLAFRIM_DEFAULT.chunk_size,
            ),
            chooser: ChooserKind::RoundRobin,
        }
    }
}

/// A deployed BeeGFS instance over a platform.
#[derive(Debug, Clone)]
pub struct BeeGfs {
    platform: Platform,
    mgmt: ManagementService,
    meta: MetaService,
    selector: TargetSelector,
    dir: DirConfig,
    next_file_id: u64,
}

impl BeeGfs {
    /// Deploy over a platform with the given directory configuration and
    /// target registration order.
    pub fn new(platform: Platform, dir: DirConfig, registration_order: Vec<TargetId>) -> Self {
        platform.validate();
        let mgmt = ManagementService::new(&platform, registration_order.clone());
        let selector = TargetSelector::with_order(dir.chooser, &platform, registration_order);
        BeeGfs {
            platform,
            mgmt,
            meta: MetaService::plafrim(),
            selector,
            dir,
            next_file_id: 0,
        }
    }

    /// The underlying platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The directory configuration.
    pub fn dir_config(&self) -> &DirConfig {
        &self.dir
    }

    /// Replace the directory configuration (admin operation).
    pub fn set_dir_config(&mut self, dir: DirConfig) {
        self.selector = TargetSelector::with_order(
            dir.chooser,
            &self.platform,
            self.mgmt.registration_order().to_vec(),
        );
        // Re-apply liveness to the fresh selector.
        for t in self.platform.all_targets() {
            self.selector.set_online(t, self.mgmt.state(t).selectable());
        }
        self.dir = dir;
    }

    /// The metadata service.
    pub fn meta(&self) -> &MetaService {
        &self.meta
    }

    /// The management service (read-only view).
    pub fn mgmt(&self) -> &ManagementService {
        &self.mgmt
    }

    /// Update a target's state; offline targets stop being selected.
    ///
    /// Fails (see [`ManagementService::set_state`]) on unknown targets or
    /// `Degraded` factors outside `(0, 1]`; the selector is only touched
    /// when the transition is accepted.
    pub fn set_target_state(&mut self, t: TargetId, s: TargetState) -> Result<(), StateError> {
        self.mgmt.set_state(t, s)?;
        self.selector.set_online(t, s.selectable());
        Ok(())
    }

    /// Override the management service's heartbeat interval (seconds):
    /// the detection delay before clients observe a state change.
    pub fn set_heartbeat_interval_s(&mut self, interval_s: f64) {
        self.mgmt.set_heartbeat_interval_s(interval_s);
    }

    /// Speed factor the target's state imposes (1.0 when online).
    pub fn target_speed_factor(&self, t: TargetId) -> f64 {
        self.mgmt.state(t).speed_factor()
    }

    /// Model the unknown file-creation history between benchmark runs
    /// (§III-C protocol): other tenants create files with the system
    /// default stripe count (4 on PlaFRIM) and earlier repetitions of the
    /// same experiment create files with this directory's stripe count,
    /// so the round-robin cursor lands on `4a + stripe * b` for unknown
    /// `a`, `b`. This is what makes stripe count 4 produce exactly the
    /// two `(1,3)` allocations the paper reports, and stripe counts
    /// 2/3/5/6 bi-modal. No-op for the stateless heuristics.
    pub fn randomize_selection_state(&mut self, rng: &mut StreamRng) {
        use rand::Rng;
        let a = u64::from(rng.gen::<u16>());
        let b = u64::from(rng.gen::<u16>());
        self.selector
            .set_cursor(4 * a + u64::from(self.dir.pattern.stripe_count) * b);
    }

    /// Model other tenants creating files *during* a run (between two of
    /// our own file creations): `K ~ Poisson(0.7)` creations at the
    /// system default stripe count of 4 advance the round-robin cursor.
    /// Calibrated so two concurrent stripe-4 applications end up on the
    /// *same* allocation roughly one third of the time (paper §IV-D) —
    /// `P(K odd) = (1 - e^{-1.4})/2 = 0.38`.
    pub fn simulate_tenant_churn(&mut self, rng: &mut StreamRng) {
        let k = simcore::dist::poisson(0.7, rng);
        self.selector.advance_cursor(4 * k);
    }

    /// Create a file in the configured directory: choose targets, pay the
    /// metadata cost, return the handle and the creation latency.
    ///
    /// Fails with [`StripeError::NotEnoughTargets`] when the directory's
    /// stripe count exceeds the number of online targets.
    pub fn create_file(
        &mut self,
        rng: &mut StreamRng,
    ) -> Result<(FileHandle, SimDuration), StripeError> {
        let targets = self
            .selector
            .choose(&self.platform, self.dir.pattern, rng)?;
        let id = self.next_file_id;
        self.next_file_id += 1;
        let latency = self.meta.create_cost(self.dir.pattern.stripe_count);
        Ok((FileHandle::new(id, targets, self.dir.pattern), latency))
    }

    /// Create a file with an explicit target list (used by experiments
    /// that pin the allocation, e.g. the Fig. 13 shared-vs-disjoint
    /// comparison).
    ///
    /// Fails with [`StripeError::OfflineTarget`] if the list names a
    /// target that is not selectable, or [`StripeError::EmptyTargetList`]
    /// if it is empty.
    pub fn create_file_on(
        &mut self,
        targets: Vec<TargetId>,
    ) -> Result<(FileHandle, SimDuration), StripeError> {
        if targets.is_empty() {
            return Err(StripeError::EmptyTargetList);
        }
        for t in &targets {
            if !self.mgmt.state(*t).selectable() {
                return Err(StripeError::OfflineTarget(*t));
            }
        }
        let pattern = StripePattern::new(targets.len() as u32, self.dir.pattern.chunk_size);
        let id = self.next_file_id;
        self.next_file_id += 1;
        let latency = self.meta.create_cost(pattern.stripe_count);
        Ok((FileHandle::new(id, targets, pattern), latency))
    }

    /// Restripe an open file onto a new target list mid-flight.
    ///
    /// Chunks already issued on the old stripe set drain where they are;
    /// only not-yet-issued chunks move (see [`crate::file::restripe_split`]
    /// for the byte plan). The returned handle keeps the file's id — a
    /// restripe is a metadata rewrite, not a new file — and the latency
    /// is the metadata cost of rewriting the stripe pattern (same cost
    /// model as creating at the new width).
    ///
    /// Deliberately consumes **no** RNG and advances **no** selector
    /// state: a restripe is an explicit administrative placement, so
    /// common-random-number streams shared with other policies are
    /// untouched and decision logs stay byte-stable.
    ///
    /// Fails with [`RestripeError::OfflineTarget`] when the new list
    /// names a target the fault timeline has already evicted, or
    /// [`RestripeError::InvalidProgress`] when `issued_bytes` exceeds
    /// `total_bytes`.
    pub fn restripe_file(
        &mut self,
        file: &FileHandle,
        new_targets: Vec<TargetId>,
        total_bytes: u64,
        issued_bytes: u64,
    ) -> Result<(FileHandle, SimDuration), RestripeError> {
        if new_targets.is_empty() {
            return Err(RestripeError::EmptyTargetList);
        }
        for t in &new_targets {
            if !self.mgmt.state(*t).selectable() {
                return Err(RestripeError::OfflineTarget(*t));
            }
        }
        if issued_bytes > total_bytes {
            return Err(RestripeError::InvalidProgress {
                issued: issued_bytes,
                total: total_bytes,
            });
        }
        let pattern = StripePattern::new(new_targets.len() as u32, file.pattern.chunk_size);
        let latency = self.meta.create_cost(pattern.stripe_count);
        Ok((FileHandle::new(file.id, new_targets, pattern), latency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Allocation;
    use crate::chooser::plafrim_registration_order;
    use cluster::presets;
    use simcore::rng::RngFactory;

    fn rng() -> StreamRng {
        RngFactory::new(21).stream("system-tests", 0)
    }

    fn plafrim_fs() -> BeeGfs {
        BeeGfs::new(
            presets::plafrim_ethernet(),
            DirConfig::plafrim_default(),
            plafrim_registration_order(),
        )
    }

    #[test]
    fn create_file_uses_dir_pattern() {
        let mut fs = plafrim_fs();
        let mut r = rng();
        let (f, latency) = fs.create_file(&mut r).unwrap();
        assert_eq!(f.targets.len(), 4);
        assert_eq!(f.pattern, StripePattern::PLAFRIM_DEFAULT);
        assert!(latency.as_secs_f64() > 0.0);
    }

    #[test]
    fn file_ids_are_unique() {
        let mut fs = plafrim_fs();
        let mut r = rng();
        let (a, _) = fs.create_file(&mut r).unwrap();
        let (b, _) = fs.create_file(&mut r).unwrap();
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn plafrim_default_always_one_three() {
        let mut fs = plafrim_fs();
        let mut r = rng();
        for _ in 0..20 {
            fs.randomize_selection_state(&mut r);
            let (f, _) = fs.create_file(&mut r).unwrap();
            let a = Allocation::classify(fs.platform(), &f.targets);
            assert_eq!(a.label(), "(1,3)");
        }
    }

    #[test]
    fn recommended_config_is_always_balanced() {
        let platform = presets::plafrim_ethernet();
        let dir = DirConfig::paper_recommended(&platform);
        assert_eq!(dir.pattern.stripe_count, 8);
        let mut fs = BeeGfs::new(platform, dir, plafrim_registration_order());
        let mut r = rng();
        let (f, _) = fs.create_file(&mut r).unwrap();
        let a = Allocation::classify(fs.platform(), &f.targets);
        assert_eq!(a.label(), "(4,4)");
    }

    #[test]
    fn offline_target_excluded_from_new_files() {
        let mut fs = plafrim_fs();
        let mut r = rng();
        fs.set_target_state(TargetId(4), TargetState::Offline)
            .unwrap();
        for _ in 0..20 {
            let (f, _) = fs.create_file(&mut r).unwrap();
            assert!(!f.targets.contains(&TargetId(4)));
        }
        assert_eq!(fs.target_speed_factor(TargetId(4)), 0.0);
    }

    #[test]
    fn degraded_target_still_selected_but_slow() {
        let mut fs = plafrim_fs();
        fs.set_target_state(TargetId(0), TargetState::Degraded(0.4))
            .unwrap();
        assert_eq!(fs.target_speed_factor(TargetId(0)), 0.4);
        // Degraded targets remain selectable.
        let mut r = rng();
        let mut seen = false;
        for _ in 0..20 {
            fs.randomize_selection_state(&mut r);
            let (f, _) = fs.create_file(&mut r).unwrap();
            seen |= f.targets.contains(&TargetId(0));
        }
        assert!(seen, "degraded target should still appear in stripings");
    }

    #[test]
    fn pinned_allocation_create() {
        let mut fs = plafrim_fs();
        let targets = vec![TargetId(0), TargetId(1), TargetId(4), TargetId(5)];
        let (f, _) = fs.create_file_on(targets.clone()).unwrap();
        assert_eq!(f.targets, targets);
        let a = Allocation::classify(fs.platform(), &f.targets);
        assert_eq!(a.label(), "(2,2)");
    }

    #[test]
    fn pinned_allocation_rejects_offline() {
        let mut fs = plafrim_fs();
        fs.set_target_state(TargetId(1), TargetState::Offline)
            .unwrap();
        let err = fs
            .create_file_on(vec![TargetId(0), TargetId(1)])
            .unwrap_err();
        assert_eq!(err, StripeError::OfflineTarget(TargetId(1)));
        assert!(fs.create_file_on(Vec::new()).is_err());
    }

    #[test]
    fn invalid_state_transitions_leave_selector_untouched() {
        let mut fs = plafrim_fs();
        assert!(matches!(
            fs.set_target_state(TargetId(0), TargetState::Degraded(0.0)),
            Err(StateError::InvalidDegradedFactor(_))
        ));
        let mut r = rng();
        // Target 0 must still be selectable at full speed.
        assert_eq!(fs.target_speed_factor(TargetId(0)), 1.0);
        let mut seen = false;
        for _ in 0..20 {
            fs.randomize_selection_state(&mut r);
            let (f, _) = fs.create_file(&mut r).unwrap();
            seen |= f.targets.contains(&TargetId(0));
        }
        assert!(seen);
    }

    #[test]
    fn create_fails_when_too_few_targets_online() {
        let mut fs = plafrim_fs();
        let mut r = rng();
        for t in 0..5u32 {
            fs.set_target_state(TargetId(t), TargetState::Offline)
                .unwrap();
        }
        // Directory stripe count is 4 but only 3 targets remain online.
        let err = fs.create_file(&mut r).unwrap_err();
        assert_eq!(
            err,
            StripeError::NotEnoughTargets {
                wanted: 4,
                online: 3
            }
        );
    }

    #[test]
    fn restripe_keeps_id_and_rejects_offline() {
        use crate::error::RestripeError;
        let mut fs = plafrim_fs();
        let mut r = rng();
        let (f, _) = fs.create_file(&mut r).unwrap();
        let wide: Vec<TargetId> = fs.platform().all_targets();
        let (g, latency) = fs.restripe_file(&f, wide.clone(), 8 * 1024, 1024).unwrap();
        assert_eq!(g.id, f.id, "restripe keeps the file id");
        assert_eq!(g.targets, wide);
        assert_eq!(g.pattern.stripe_count, 8);
        assert_eq!(g.pattern.chunk_size, f.pattern.chunk_size);
        assert!(latency.as_secs_f64() > 0.0);

        // Fault-timeline interaction: an evicted target is not a valid
        // restripe destination.
        fs.set_target_state(TargetId(2), TargetState::Offline)
            .unwrap();
        let err = fs.restripe_file(&f, wide, 8 * 1024, 1024).unwrap_err();
        assert_eq!(err, RestripeError::OfflineTarget(TargetId(2)));

        assert_eq!(
            fs.restripe_file(&f, Vec::new(), 8, 0).unwrap_err(),
            RestripeError::EmptyTargetList
        );
        assert_eq!(
            fs.restripe_file(&f, vec![TargetId(0)], 8, 9).unwrap_err(),
            RestripeError::InvalidProgress {
                issued: 9,
                total: 8
            }
        );
    }

    #[test]
    fn restripe_consumes_no_rng_or_selector_state() {
        // Two deployments, identical history; one restripes, one does
        // not. The *next* chooser-driven creation must be identical —
        // the CRN-preservation guarantee.
        let mut a = plafrim_fs();
        let mut b = plafrim_fs();
        let mut ra = rng();
        let mut rb = rng();
        let (fa, _) = a.create_file(&mut ra).unwrap();
        let (_fb, _) = b.create_file(&mut rb).unwrap();
        let _ = a
            .restripe_file(&fa, a.platform().all_targets(), 1024, 512)
            .unwrap();
        let (na, _) = a.create_file(&mut ra).unwrap();
        let (nb, _) = b.create_file(&mut rb).unwrap();
        assert_eq!(na.targets, nb.targets);
    }

    #[test]
    fn set_dir_config_switches_chooser() {
        let mut fs = plafrim_fs();
        let mut r = rng();
        fs.set_dir_config(DirConfig {
            pattern: StripePattern::new(4, 512 * 1024),
            chooser: ChooserKind::Balanced,
        });
        for _ in 0..10 {
            let (f, _) = fs.create_file(&mut r).unwrap();
            let a = Allocation::classify(fs.platform(), &f.targets);
            assert_eq!(a.label(), "(2,2)");
        }
    }

    #[test]
    fn set_dir_config_preserves_offline_state() {
        let mut fs = plafrim_fs();
        let mut r = rng();
        fs.set_target_state(TargetId(7), TargetState::Offline)
            .unwrap();
        fs.set_dir_config(DirConfig {
            pattern: StripePattern::new(7, 512 * 1024),
            chooser: ChooserKind::Random,
        });
        for _ in 0..10 {
            let (f, _) = fs.create_file(&mut r).unwrap();
            assert!(!f.targets.contains(&TargetId(7)));
        }
    }
}
