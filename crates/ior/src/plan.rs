//! The write plan: the fluid flows one application's write issues, which
//! both [`Run`](crate::Run) and the scheduler's online engine start.

use crate::config::{FileLayout, IorConfig};
use beegfs_core::FileHandle;
use cluster::{ComputeSpec, TargetId};

/// One flow of an application's write: the bytes one process sends to
/// one storage target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteFlow {
    /// Process rank within the application.
    pub process: usize,
    /// Compute node the process runs on.
    pub node: usize,
    /// Index of the written file in the application's file list: 0 for
    /// N-1, the process rank for N-N.
    pub file: usize,
    /// Storage target receiving the bytes.
    pub target: TargetId,
    /// Bytes the process writes to `target`; never zero.
    pub bytes: u64,
    /// Queue-depth weight ([`ComputeSpec::flow_depth_weight`]).
    pub weight: f64,
}

/// The flows of `cfg`'s write over `files` from `nodes`, in issue order:
/// process by process, and within a process its file's targets in
/// stripe-slot order, skipping targets that receive no bytes.
///
/// Process `p` runs on `nodes[p / ppn]` and writes
/// [`IorConfig::block_size`] bytes contiguously: at offset `p × block`
/// of `files[0]` for [`FileLayout::SharedFile`], at offset 0 of
/// `files[p]` for [`FileLayout::FilePerProcess`].
///
/// # Panics
/// Panics if `nodes` has fewer than `cfg.nodes` entries, or `files`
/// fewer than the layout writes.
pub fn write_plan<'a>(
    cfg: &IorConfig,
    files: &'a [FileHandle],
    nodes: &'a [usize],
    compute: &'a ComputeSpec,
) -> impl Iterator<Item = WriteFlow> + 'a {
    let (ppn, layout, block) = (cfg.ppn, cfg.layout, cfg.block_size());
    (0..cfg.processes()).flat_map(move |process| {
        let (file, offset) = match layout {
            FileLayout::SharedFile => (0, process as u64 * block),
            FileLayout::FilePerProcess => (process, 0),
        };
        let node = nodes[process / ppn as usize];
        let handle = &files[file];
        let weight = compute.flow_depth_weight(ppn, handle.pattern.stripe_count);
        handle
            .targets
            .iter()
            .copied()
            .zip(handle.pattern.slot_bytes(offset, block))
            .filter(|&(_, bytes)| bytes > 0)
            .map(move |(target, bytes)| WriteFlow {
                process,
                node,
                file,
                target,
                bytes,
                weight,
            })
    })
}

/// Merge a write plan's flows into records of identical flows, node by
/// node: `emit` receives each record's first flow and how many flows it
/// holds, one node's records at a time, in the order their first flows
/// come. Flows are identical when they share node, target, bytes and
/// weight; one node's flows must be consecutive, as [`write_plan`]
/// issues them. `groups` is scratch for one node's records, so sizing
/// it once (the node's processes times the widest stripe) keeps the
/// grouping allocation-free.
///
/// A node's processes mostly send the same bytes to each target, and
/// each such record simulates as one
/// ([`FluidSim::start_flows_at`](simcore::flow::FluidSim::start_flows_at)).
/// That is exact when every flow of the plan carries one weight (see
/// there): each resource then adds the same weights in the same order.
pub fn group_by_node(
    plan: impl IntoIterator<Item = WriteFlow>,
    groups: &mut Vec<(WriteFlow, u32)>,
    mut emit: impl FnMut(WriteFlow, u32),
) {
    groups.clear();
    for f in plan {
        if groups.first().is_some_and(|(g, _)| g.node != f.node) {
            groups.drain(..).for_each(|(g, n)| emit(g, n));
        }
        let same = |g: &WriteFlow| {
            (g.target, g.bytes, g.weight.to_bits()) == (f.target, f.bytes, f.weight.to_bits())
        };
        match groups.iter_mut().find(|(g, _)| same(g)) {
            Some((_, n)) => *n += 1,
            None => groups.push((f, 1)),
        }
    }
    groups.drain(..).for_each(|(g, n)| emit(g, n));
}

#[cfg(test)]
mod tests {
    use super::*;
    use beegfs_core::StripePattern;
    use cluster::presets;
    use simcore::units::{GIB, MIB};

    fn file(id: u64, targets: &[u32], chunk: u64) -> FileHandle {
        FileHandle::new(
            id,
            targets.iter().map(|&t| TargetId(t)).collect(),
            StripePattern::new(targets.len() as u32, chunk),
        )
    }

    #[test]
    fn a_shared_file_splits_each_block_over_its_stripe() {
        let compute = presets::plafrim_ethernet().compute;
        // 2 nodes x 2 processes, 4 MiB each over a 4-target stripe with
        // 1 MiB chunks: every process writes 1 MiB to every target.
        let cfg = IorConfig {
            nodes: 2,
            ppn: 2,
            total_bytes: 16 * MIB,
            ..IorConfig::paper_default(2)
        };
        let files = [file(1, &[3, 1, 4, 5], MIB)];
        let flows: Vec<WriteFlow> = write_plan(&cfg, &files, &[7, 2], &compute).collect();
        assert_eq!(flows.len(), 16);
        let weight = compute.flow_depth_weight(2, 4);
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(f.process, i / 4);
            assert_eq!(f.node, [7, 2][i / 8]);
            assert_eq!(f.file, 0);
            assert_eq!(f.target, files[0].targets[i % 4]);
            assert_eq!(f.bytes, MIB);
            assert_eq!(f.weight.to_bits(), weight.to_bits());
        }
    }

    #[test]
    fn empty_targets_are_skipped_and_bytes_are_conserved() {
        let compute = presets::plafrim_ethernet().compute;
        // One 1 MiB block per process over 4 targets with 512 KiB
        // chunks: each process touches two targets, at its own offset.
        let cfg = IorConfig {
            nodes: 1,
            ppn: 4,
            total_bytes: 4 * MIB,
            ..IorConfig::paper_default(1)
        };
        let files = [file(1, &[0, 1, 2, 3], 512 * 1024)];
        let flows: Vec<WriteFlow> = write_plan(&cfg, &files, &[0], &compute).collect();
        let pairs: Vec<(usize, u32)> = flows.iter().map(|f| (f.process, f.target.0)).collect();
        assert_eq!(
            pairs,
            vec![
                (0, 0),
                (0, 1),
                (1, 2),
                (1, 3),
                (2, 0),
                (2, 1),
                (3, 2),
                (3, 3)
            ]
        );
        assert!(flows.iter().all(|f| f.bytes == 512 * 1024));
        assert_eq!(flows.iter().map(|f| f.bytes).sum::<u64>(), 4 * MIB);
    }

    #[test]
    fn grouping_merges_a_nodes_identical_flows_in_first_appearance_order() {
        let compute = presets::plafrim_ethernet().compute;
        // 2 nodes x 3 processes, one 1.5 MiB block each over a 3-target
        // stripe with 1 MiB chunks: slot bytes depend on the offset, so
        // a node's processes send unequal bytes to some targets.
        let cfg = IorConfig {
            nodes: 2,
            ppn: 3,
            total_bytes: 9 * MIB,
            transfer_size: MIB / 2,
            ..IorConfig::paper_default(2)
        };
        let files = [file(1, &[0, 1, 2], MIB)];
        let plan: Vec<WriteFlow> = write_plan(&cfg, &files, &[4, 9], &compute).collect();
        let mut groups = Vec::new();
        let mut records = Vec::new();
        group_by_node(plan.iter().copied(), &mut groups, |f, n| {
            records.push((f, n))
        });
        assert!(groups.is_empty());
        assert!(records.len() < plan.len(), "nothing merged");
        // Expanding each record in place gives every flow once, node
        // by node, each record holding only flows identical to its
        // first.
        let mut expanded: Vec<WriteFlow> = Vec::new();
        for &(g, n) in &records {
            let members: Vec<&WriteFlow> = plan
                .iter()
                .filter(|f| (f.node, f.target, f.bytes) == (g.node, g.target, g.bytes))
                .collect();
            assert_eq!(members.len(), n as usize);
            assert_eq!(*members[0], g, "a record starts at its first flow");
            expanded.extend(members.into_iter().copied());
        }
        let key = |f: &WriteFlow| (f.node, f.process, f.target);
        let (mut a, mut b) = (expanded.clone(), plan.clone());
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
        assert!(records.windows(2).all(|w| w[0].0.node <= w[1].0.node));
    }

    #[test]
    fn file_per_process_writes_each_process_file_from_offset_zero() {
        let compute = presets::plafrim_omnipath().compute;
        let cfg = IorConfig {
            nodes: 2,
            ppn: 1,
            total_bytes: 2 * GIB,
            layout: FileLayout::FilePerProcess,
            ..IorConfig::paper_default(2)
        };
        let files = [file(1, &[0, 1], MIB), file(2, &[4, 5, 6], MIB)];
        let flows: Vec<WriteFlow> = write_plan(&cfg, &files, &[0, 1], &compute).collect();
        assert_eq!(flows.len(), 5);
        for f in &flows {
            assert_eq!((f.file, f.node), (f.process, f.process));
            assert!(files[f.file].targets.contains(&f.target));
            let stripe = files[f.file].pattern.stripe_count;
            assert_eq!(f.weight, compute.flow_depth_weight(1, stripe));
        }
        let per_process = |p: usize| -> u64 {
            flows
                .iter()
                .filter(|f| f.process == p)
                .map(|f| f.bytes)
                .sum()
        };
        assert_eq!(per_process(0), GIB);
        assert_eq!(per_process(1), GIB);
    }
}
