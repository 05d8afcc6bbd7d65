//! One simulated service node, the unit both simulators run: a real
//! service [`Core`] over a crash-torn [`SimDisk`], scanned and
//! checkpointed by the maintenance tasks, struck by silicon faults, and
//! crash-recovered through `build_core`. [`super::run_sim`] runs one;
//! [`super::fleet::run_fleet`] runs one per replica.

use std::sync::Arc;

use dst::{Clock, NonceNamespace, SimDisk};
use sensor::RingFault;

use crate::error::Result;
use crate::service::{
    build_core, checkpoint_locked, reference_array, refresh_cache_locked, Core, Field,
    RecoveryReport, RuntimeConfig,
};

/// One simulated service node and what a crash rebuilds it from.
pub(crate) struct Node {
    core: Arc<Core>,
    disk: Arc<SimDisk>,
    clock: Arc<dyn Clock>,
    sites: usize,
    field: Field,
    cfg: RuntimeConfig,
    /// Where checkpoint temp-file nonces come from, if the driver set
    /// one; a rebuilt core's store gets it back.
    namespace: Option<Arc<NonceNamespace>>,
    /// Active faults `(clears_at_ms, site, fault)`: they live in the
    /// silicon and survive crashes.
    faults: Vec<(u64, usize, RingFault)>,
}

impl Node {
    /// Builds a cold core over `reference_array(sites)`.
    ///
    /// # Panics
    ///
    /// When `cfg` cannot start a core, a broken simulator config.
    pub(crate) fn start(
        sites: usize,
        field: Field,
        cfg: RuntimeConfig,
        clock: Arc<dyn Clock>,
        disk: Arc<SimDisk>,
        namespace: Option<Arc<NonceNamespace>>,
    ) -> Node {
        let (core, _report) = build_core(
            reference_array(sites),
            Arc::clone(&field),
            cfg.clone(),
            false,
            Arc::clone(&clock),
            Arc::clone(&disk) as Arc<dyn dst::SimFs>,
            true,
        )
        .expect("a simulated node must start");
        let node = Node {
            core,
            disk,
            clock,
            sites,
            field,
            cfg,
            namespace,
            faults: Vec::new(),
        };
        node.set_namespace();
        node
    }

    /// The current incarnation's core.
    pub(crate) fn core(&self) -> &Arc<Core> {
        &self.core
    }

    /// The node's disk, which outlives its crashes.
    pub(crate) fn disk(&self) -> &Arc<SimDisk> {
        &self.disk
    }

    /// One background scan. A failed scan is not fatal: the cache
    /// ages out, as in the threaded maintenance loop.
    pub(crate) fn scan(&self) {
        let mut state = self.core.state.lock().expect("state poisoned");
        let _ = refresh_cache_locked(&self.core, &mut state, self.core.now_ms());
    }

    /// Adopts `epoch` (a no-op at 0 or below the held epoch), then
    /// checkpoints; true when the checkpoint persisted.
    pub(crate) fn checkpoint(&self, epoch: u64) -> bool {
        self.core.adopt_group_epoch(epoch);
        let mut state = self.core.state.lock().expect("state poisoned");
        checkpoint_locked(&self.core, &mut state, self.core.now_ms()).is_ok()
    }

    /// Injects `fault` into `site` until `clears_at` and remembers it
    /// across crashes; false, and nothing remembered, for a site the
    /// array lacks.
    pub(crate) fn strike(&mut self, site: usize, fault: RingFault, clears_at: u64) -> bool {
        let mut state = self.core.state.lock().expect("state poisoned");
        let Some(s) = state.array.sites_mut().get_mut(site) else {
            return false;
        };
        s.unit.inject_fault(fault);
        self.faults.push((clears_at, site, fault));
        true
    }

    /// Clears every fault due by `now`; returns how many expired.
    pub(crate) fn clear_due(&mut self, now: u64) -> u64 {
        let mut state = self.core.state.lock().expect("state poisoned");
        let before = self.faults.len();
        self.faults.retain(|&(clears_at, site, _)| {
            if clears_at > now {
                return true;
            }
            if let Some(s) = state.array.sites_mut().get_mut(site) {
                s.unit.clear_fault();
            }
            false
        });
        (before - self.faults.len()) as u64
    }

    /// When the next active fault clears.
    pub(crate) fn next_clear(&self) -> Option<u64> {
        self.faults.iter().map(|&(clears_at, _, _)| clears_at).min()
    }

    /// Power loss and recovery: the disk tears, and the core is rebuilt
    /// from the newest valid checkpoint (`rebase` as in `build_core`)
    /// with the active faults and the namespace applied again. Returns
    /// what recovery restored and whether the rebuilt core came up with
    /// a cached median, which recovery must never restore. On error the
    /// old core stays.
    pub(crate) fn crash(&mut self, rebase: bool) -> Result<(RecoveryReport, bool)> {
        self.disk.crash();
        let (core, report) = build_core(
            reference_array(self.sites),
            Arc::clone(&self.field),
            self.cfg.clone(),
            true,
            Arc::clone(&self.clock),
            Arc::clone(&self.disk) as Arc<dyn dst::SimFs>,
            rebase,
        )?;
        self.core = core;
        let mut state = self.core.state.lock().expect("state poisoned");
        let resurrected = state.cache.is_some();
        for &(_, site, fault) in &self.faults {
            if let Some(s) = state.array.sites_mut().get_mut(site) {
                s.unit.inject_fault(fault);
            }
        }
        drop(state);
        self.set_namespace();
        Ok((report, resurrected))
    }

    fn set_namespace(&self) {
        let mut state = self.core.state.lock().expect("state poisoned");
        if let (Some(store), Some(ns)) = (state.store.as_mut(), &self.namespace) {
            store.set_namespace(Arc::clone(ns));
        }
    }
}
