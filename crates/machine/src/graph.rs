//! Dataflow graphs of streaming nodes.
//!
//! A [`Graph`] owns nodes, channels, and the shared [`MemoryState`]. It is
//! the per-instance state every executor mutates: the untimed executor
//! ([`crate::ExecPlan`], a Kahn-style process network run to quiescence —
//! the *functional reference* for compiled programs) and the cycle-level
//! simulator (crate `revet-sim`, which re-executes the same graph under
//! timing constraints). [`Graph::run_untimed`] is the one-shot helper for
//! hand-built graphs.

use crate::channel::Channel;
use crate::mem::MemoryState;
use crate::node::{ChanId, IoEvents, MachineError, Node, NodeId, NodeIo, PortBudget};
use crate::plan::{ExecPlan, ExecReport, ResumeState, RunStatus};
use crate::tuple::TTok;
use revet_obs::{ObsSink, StallClass};
use std::fmt;
use std::sync::Arc;

/// What kind of physical unit a node maps to (§VI-A: CUs, MUs, AGs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum UnitClass {
    /// Compute unit (pipeline stages, merges, counters, filters).
    #[default]
    Compute,
    /// Memory unit (SRAM access, allocator queues, retiming buffers).
    Memory,
    /// DRAM address generator.
    AddressGen,
    /// Not a physical unit (sources/sinks used for test harnesses).
    Virtual,
}

/// A node slot: behavior plus wiring and placement metadata.
pub struct NodeSlot {
    /// The behavior (taken out while stepping).
    pub behavior: Option<Box<dyn Node>>,
    /// Input channels, in port order.
    pub ins: Vec<ChanId>,
    /// Output channels, in port order.
    pub outs: Vec<ChanId>,
    /// Debug label ("bb3.filter", "loop2.head", …).
    pub label: String,
    /// Streaming-context id assigned by the compiler (groups nodes that fuse
    /// into one physical unit); `u32::MAX` = unassigned.
    pub context: u32,
    /// Placement class.
    pub unit: UnitClass,
}

impl fmt::Debug for NodeSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeSlot")
            .field("label", &self.label)
            .field("ins", &self.ins)
            .field("outs", &self.outs)
            .field("context", &self.context)
            .field("unit", &self.unit)
            .finish()
    }
}

/// Precomputed channel-endpoint index: who produces into and consumes from
/// every channel, plus which nodes can stall on allocator queues.
///
/// Built once per wiring ([`Graph::finalize_topology`], called by the
/// compiler when it finishes a [`Graph`]); invalidated by any later
/// `add_node`/`add_chan`. The cycle-level simulator wakes nodes through
/// it, and [`Graph::stuck_channels`] diagnoses deadlocks with it in one
/// pass. (The untimed [`crate::ExecPlan`] flattens its own copy.)
#[derive(Debug, Clone, Default)]
pub struct TopologyIndex {
    /// Per channel: nodes reading it (almost always exactly one).
    consumers: Vec<Vec<NodeId>>,
    /// Per channel: nodes writing it (almost always exactly one).
    producers: Vec<Vec<NodeId>>,
    /// Nodes whose behavior may stall on allocator availability.
    alloc_waiters: Vec<NodeId>,
}

impl TopologyIndex {
    fn build(nodes: &[NodeSlot], chan_count: usize) -> Self {
        let mut consumers = vec![Vec::new(); chan_count];
        let mut producers = vec![Vec::new(); chan_count];
        let mut alloc_waiters = Vec::new();
        for (i, slot) in nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            for c in &slot.ins {
                consumers[c.0 as usize].push(id);
            }
            for c in &slot.outs {
                producers[c.0 as usize].push(id);
            }
            if slot
                .behavior
                .as_ref()
                .is_some_and(|b| b.may_stall_on_alloc())
            {
                alloc_waiters.push(id);
            }
        }
        TopologyIndex {
            consumers,
            producers,
            alloc_waiters,
        }
    }

    /// Nodes consuming from channel `c`.
    pub fn consumers(&self, c: ChanId) -> &[NodeId] {
        &self.consumers[c.0 as usize]
    }

    /// Nodes producing into channel `c`.
    pub fn producers(&self, c: ChanId) -> &[NodeId] {
        &self.producers[c.0 as usize]
    }

    /// Nodes that can stall on allocator-queue availability.
    pub fn alloc_waiters(&self) -> &[NodeId] {
        &self.alloc_waiters
    }
}

/// A dataflow graph: nodes, channels, and shared memory.
///
/// A graph is **per-instance execution state**: node behaviors, channel
/// queues, and [`MemoryState`] all mutate as the graph runs. The one
/// exception is the [`TopologyIndex`], which depends only on the wiring and
/// is held behind an [`Arc`] so every instance cloned from one compiled
/// graph ([`Graph::fresh_instance`]) shares a single copy. Graphs are
/// `Send` (every [`Node`] is `Send + Sync`), so instances can run on
/// worker threads.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<NodeSlot>,
    chans: Vec<Channel>,
    /// Shared DRAM / SRAM / allocator state.
    pub mem: MemoryState,
    /// Channel-endpoint index, shared across instances of the same wiring;
    /// `None` until finalized or after rewiring.
    topo: Option<Arc<TopologyIndex>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a channel; returns its id.
    pub fn add_chan(&mut self, chan: Channel) -> ChanId {
        self.topo = None;
        let id = ChanId(self.chans.len() as u32);
        self.chans.push(chan);
        id
    }

    /// Adds a node wired to the given channels; returns its id.
    pub fn add_node(
        &mut self,
        label: impl Into<String>,
        behavior: Box<dyn Node>,
        ins: Vec<ChanId>,
        outs: Vec<ChanId>,
    ) -> NodeId {
        self.topo = None;
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot {
            behavior: Some(behavior),
            ins,
            outs,
            label: label.into(),
            context: u32::MAX,
            unit: UnitClass::Compute,
        });
        id
    }

    /// Sets placement metadata on a node.
    pub fn set_node_meta(&mut self, id: NodeId, context: u32, unit: UnitClass) {
        let slot = &mut self.nodes[id.0 as usize];
        slot.context = context;
        slot.unit = unit;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of channels.
    pub fn chan_count(&self) -> usize {
        self.chans.len()
    }

    /// Node slots (for inspection / placement / timing).
    pub fn nodes(&self) -> &[NodeSlot] {
        &self.nodes
    }

    /// A node slot by id.
    pub fn node(&self, id: NodeId) -> &NodeSlot {
        &self.nodes[id.0 as usize]
    }

    /// Channels (for inspection).
    pub fn chans(&self) -> &[Channel] {
        &self.chans
    }

    /// Mutable channel access (simulator wiring). Capacity/class changes do
    /// not alter endpoints, so the topology index stays valid.
    pub fn chan_mut(&mut self, id: ChanId) -> &mut Channel {
        &mut self.chans[id.0 as usize]
    }

    /// Split mutable access to the channel table and memory state — the
    /// plan executor pops, computes against memory, and pushes in one
    /// borrow scope.
    pub(crate) fn chans_and_mem_mut(&mut self) -> (&mut [Channel], &mut MemoryState) {
        (&mut self.chans, &mut self.mem)
    }

    /// Like [`Graph::chans_and_mem_mut`] with the node slots alongside
    /// (read-only, for error attribution while channels are borrowed).
    pub(crate) fn split_mut(&mut self) -> (&mut [Channel], &mut MemoryState, &[NodeSlot]) {
        (&mut self.chans, &mut self.mem, &self.nodes)
    }

    /// Builds (or reuses) the channel-endpoint index for the current wiring.
    /// The compiler calls this once when a program's graph is complete.
    pub fn finalize_topology(&mut self) -> &TopologyIndex {
        if self.topo.is_none() {
            self.topo = Some(Arc::new(TopologyIndex::build(
                &self.nodes,
                self.chans.len(),
            )));
        }
        self.topo.as_deref().expect("just built")
    }

    /// The topology index, if the current wiring has been finalized.
    pub fn topology(&self) -> Option<&TopologyIndex> {
        self.topo.as_deref()
    }

    /// A shared handle to the finalized topology index (building it if
    /// needed). Instances cloned from this graph hold the same `Arc`, so
    /// the index is computed once per compile, not once per instance.
    pub fn topology_handle(&mut self) -> Arc<TopologyIndex> {
        self.finalize_topology();
        self.topo.clone().expect("just finalized")
    }

    /// Deep-clones this graph into a fresh, independently runnable
    /// instance: node state, channel contents, and memory are copied;
    /// result-collecting sinks get **fresh, empty** buffers (instances
    /// never share result storage); the immutable [`TopologyIndex`] is
    /// shared via [`Arc`] rather than rebuilt.
    ///
    /// This is the machine half of the compile-once/run-many split: the
    /// compiler finishes a graph once, and the batch runtime clones it
    /// into as many concurrent instances as it needs.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from inside a node step (a behavior is
    /// checked out mid-step).
    pub fn fresh_instance(&self) -> Graph {
        Graph {
            nodes: self
                .nodes
                .iter()
                .map(|slot| NodeSlot {
                    behavior: Some(
                        slot.behavior
                            .as_ref()
                            .expect("fresh_instance during a node step")
                            .clone_node(),
                    ),
                    ins: slot.ins.clone(),
                    outs: slot.outs.clone(),
                    label: slot.label.clone(),
                    context: slot.context,
                    unit: slot.unit,
                })
                .collect(),
            chans: self.chans.clone(),
            mem: self.mem.clone(),
            topo: self.topo.clone(),
        }
    }

    /// Steps one node once with the given port budgets, recording channel
    /// gain/free events into `events` (cleared first) for event-driven
    /// wake-ups. Returns whether the node made progress.
    ///
    /// # Errors
    ///
    /// Propagates node protocol errors, attributed with the node label; a
    /// reentrant step (behavior already checked out) is reported as a
    /// [`MachineError`] rather than a crash.
    pub fn step_node_traced(
        &mut self,
        id: NodeId,
        in_budget: &mut [PortBudget],
        out_budget: &mut [PortBudget],
        events: &mut IoEvents,
    ) -> Result<bool, MachineError> {
        events.clear();
        let idx = id.0 as usize;
        let Some(mut behavior) = self.nodes[idx].behavior.take() else {
            return Err(MachineError {
                node: Some(self.nodes[idx].label.clone()),
                message: "reentrant step: node behavior already checked out \
                          (a node stepped itself, or an executor re-entered the graph)"
                    .into(),
            });
        };
        let slot_ins = std::mem::take(&mut self.nodes[idx].ins);
        let slot_outs = std::mem::take(&mut self.nodes[idx].outs);
        let mut io = NodeIo::new(
            &mut self.chans,
            &slot_ins,
            &slot_outs,
            &mut self.mem,
            in_budget,
            out_budget,
        )
        .with_events(events);
        let result = behavior.step(&mut io);
        self.nodes[idx].ins = slot_ins;
        self.nodes[idx].outs = slot_outs;
        self.nodes[idx].behavior = Some(behavior);
        result.map_err(|mut e| {
            if e.node.is_none() {
                e.node = Some(self.nodes[idx].label.clone());
            }
            e
        })
    }

    /// One-pass deadlock diagnosis over the consumer index: every non-empty
    /// channel that *has* a consumer is stuck (channels nobody reads —
    /// dangling outputs — may legally retain tokens). Returns one line per
    /// stuck channel with its consumer labels; an empty result means a
    /// clean drain.
    pub fn stuck_channels(&self) -> Vec<String> {
        let built;
        let topo = match &self.topo {
            Some(t) => t,
            None => {
                built = TopologyIndex::build(&self.nodes, self.chans.len());
                &built
            }
        };
        let mut stuck = Vec::new();
        for (ci, chan) in self.chans.iter().enumerate() {
            let consumers = topo.consumers(ChanId(ci as u32));
            if chan.is_empty() || consumers.is_empty() {
                continue;
            }
            let labels: Vec<&str> = consumers
                .iter()
                .map(|id| self.nodes[id.0 as usize].label.as_str())
                .collect();
            stuck.push(format!(
                "channel #{ci} -> '{}': {} tokens pending",
                labels.join(", "),
                chan.len()
            ));
        }
        stuck
    }

    /// The untimed deadlock error: what a [`RunStatus::Paused`] quiescence
    /// means when no more input will arrive (a one-shot run, or a stream's
    /// final poll). Lists every stuck channel ([`Graph::stuck_channels`]).
    pub fn deadlock_error(&self) -> MachineError {
        MachineError::new(format!(
            "deadlock at quiescence: {}",
            self.stuck_channels().join("; ")
        ))
    }

    /// Runs the graph untimed to quiescence, one shot, through a freshly
    /// built [`ExecPlan`] — the helper for hand-built graphs. Compiled
    /// programs build their plan once and call [`ExecPlan::run`].
    ///
    /// # Errors
    ///
    /// Returns a node error, a round-limit error (suspected livelock), or a
    /// deadlock diagnosis listing all stuck channels.
    pub fn run_untimed(&mut self, max_rounds: u64) -> Result<ExecReport, MachineError> {
        let plan = ExecPlan::build(self);
        match plan.run(self, &mut ResumeState::new(), max_rounds, ObsSink::noop())? {
            (report, RunStatus::Finished) => Ok(report),
            (_, RunStatus::Paused) => Err(self.deadlock_error()),
        }
    }

    /// Appends tokens to the internal pending queue of source node `id`
    /// ([`Node::feed_tokens`]) — how a paused streaming graph receives its
    /// next input chunk. The next [`ExecPlan::run`] re-wakes the source.
    ///
    /// # Errors
    ///
    /// Returns an error if the node is not an input endpoint, or its
    /// behavior is checked out mid-step.
    pub fn feed_source(&mut self, id: NodeId, tokens: Vec<TTok>) -> Result<(), MachineError> {
        let slot = &mut self.nodes[id.0 as usize];
        let Some(behavior) = slot.behavior.as_mut() else {
            return Err(MachineError {
                node: Some(slot.label.clone()),
                message: "feed_source during a node step (behavior checked out)".into(),
            });
        };
        behavior.feed_tokens(tokens).map_err(|mut e| {
            if e.node.is_none() {
                e.node = Some(slot.label.clone());
            }
            e
        })
    }

    /// Approximate resident heap bytes of this graph's mutable streaming
    /// state: queued channel tokens plus node-internal state (pending
    /// source input, collected sink output). Excludes the fixed-size
    /// memory image — per-session accounting wants the part that grows
    /// with buffered work.
    pub fn resident_bytes(&self) -> u64 {
        let chan_bytes: usize = self.chans.iter().map(Channel::resident_bytes).sum();
        let node_bytes: usize = self
            .nodes
            .iter()
            .filter_map(|s| s.behavior.as_ref())
            .map(|b| b.resident_bytes())
            .sum();
        (chan_bytes + node_bytes) as u64
    }

    /// Classifies why a node that was just stepped made no progress, by
    /// inspecting its channel endpoints: an empty input means
    /// **input-starved**; otherwise a bounded output at capacity means
    /// **output-full**; otherwise a node that can block on an allocator
    /// queue is **allocator-gated**. (DRAM gating exists only in the timed
    /// simulator, which attributes it at the deferral site.) Shared by the
    /// untimed executor and the simulator.
    pub fn classify_stall(&self, id: NodeId) -> StallClass {
        let slot = &self.nodes[id.0 as usize];
        if slot.ins.iter().any(|c| self.chans[c.0 as usize].is_empty()) {
            return StallClass::InputStarved;
        }
        if slot
            .outs
            .iter()
            .any(|c| self.chans[c.0 as usize].room() == 0)
        {
            return StallClass::OutputFull;
        }
        if slot
            .behavior
            .as_ref()
            .is_some_and(|b| b.may_stall_on_alloc())
        {
            return StallClass::AllocGated;
        }
        // No visibly blocked endpoint: the node is waiting for *more* input
        // than any one channel shows (e.g. a barrier-aligned zip).
        StallClass::InputStarved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, EwInstr, Operand};
    use crate::nodes::{EwNode, OutputSpec, SinkNode, SourceNode};
    use crate::tuple::{tbar, tdata};

    #[test]
    fn pipeline_source_ew_sink() {
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        g.add_node(
            "src",
            Box::new(SourceNode::new(vec![tdata([4u32]), tbar(1)])),
            vec![],
            vec![c0],
        );
        g.add_node(
            "double",
            Box::new(EwNode::new(
                1,
                vec![EwInstr::Alu {
                    op: AluOp::Add,
                    a: Operand::Reg(0),
                    b: Operand::Reg(0),
                    dst: 1,
                }],
                vec![OutputSpec::plain([1])],
            )),
            vec![c0],
            vec![c1],
        );
        let (sink, handle) = SinkNode::new();
        g.add_node("sink", Box::new(sink), vec![c1], vec![]);
        let report = g.run_untimed(100).unwrap();
        assert!(report.productive_steps >= 3);
        assert_eq!(handle.tokens(), vec![tdata([8u32]), tbar(1)]);
    }

    #[test]
    fn deadlock_detected() {
        // A consumer that needs two inputs but only one is fed.
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        let c2 = g.add_chan(Channel::new(2));
        g.add_node(
            "src",
            Box::new(SourceNode::new(vec![tdata([1u32])])),
            vec![],
            vec![c0],
        );
        // c1 never receives anything.
        g.add_node(
            "zip",
            Box::new(EwNode::passthrough(2)),
            vec![c0, c1],
            vec![c2],
        );
        let (sink, _h) = SinkNode::new();
        g.add_node("sink", Box::new(sink), vec![c2], vec![]);
        let err = g.run_untimed(100).unwrap_err();
        assert!(err.message.contains("deadlock"), "got: {err}");
    }

    #[test]
    fn round_limit_reported() {
        // An endless loop: counter feeding itself through fork is hard to
        // build by accident; emulate livelock by a source with huge output
        // and a tiny round cap.
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1).with_capacity(1));
        g.add_node(
            "src",
            Box::new(SourceNode::new(vec![tdata([1u32]), tdata([2u32])])),
            vec![],
            vec![c0],
        );
        // No consumer: source can push one token then stalls forever; with
        // max_rounds=0 we hit the cap immediately.
        let err = g.run_untimed(0).unwrap_err();
        assert!(err.message.contains("no quiescence"), "got: {err}");
    }

    #[test]
    fn reentrant_step_is_an_error_not_a_panic() {
        // A node whose behavior steps the node again through nothing — we
        // emulate the checked-out state by taking the behavior out directly.
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let id = g.add_node(
            "src",
            Box::new(SourceNode::new(vec![tdata([1u32])])),
            vec![],
            vec![c0],
        );
        g.nodes[id.0 as usize].behavior = None; // simulate mid-step state
        let mut ib: Vec<PortBudget> = vec![];
        let mut ob = vec![PortBudget::UNLIMITED];
        let err = g
            .step_node_traced(id, &mut ib, &mut ob, &mut IoEvents::default())
            .unwrap_err();
        assert!(err.message.contains("reentrant step"), "got: {err}");
        assert_eq!(err.node.as_deref(), Some("src"));
    }

    #[test]
    fn deadlock_reports_all_stuck_channels() {
        // Two independent starved zips: the diagnosis must list both, with
        // their consumer labels, in one pass.
        let mut g = Graph::new();
        let starve = |g: &mut Graph, tag: &str| {
            let c0 = g.add_chan(Channel::new(1));
            let c1 = g.add_chan(Channel::new(1));
            let c2 = g.add_chan(Channel::new(2));
            g.add_node(
                format!("src.{tag}"),
                Box::new(SourceNode::new(vec![tdata([1u32])])),
                vec![],
                vec![c0],
            );
            g.add_node(
                format!("zip.{tag}"),
                Box::new(EwNode::passthrough(2)),
                vec![c0, c1],
                vec![c2],
            );
            let (sink, _h) = SinkNode::new();
            g.add_node(format!("sink.{tag}"), Box::new(sink), vec![c2], vec![]);
        };
        starve(&mut g, "a");
        starve(&mut g, "b");
        let err = g.run_untimed(100).unwrap_err();
        assert!(err.message.contains("deadlock"), "got: {err}");
        assert!(err.message.contains("zip.a"), "got: {err}");
        assert!(err.message.contains("zip.b"), "got: {err}");
    }

    #[test]
    fn graph_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Graph>();
        assert_send_sync::<TopologyIndex>();
        assert_send_sync::<ExecReport>();
    }

    #[test]
    fn fresh_instance_runs_independently_with_fresh_sinks() {
        // One finished graph, three instances: each run collects into its
        // own sink buffer and mutates its own memory; the original graph is
        // untouched and the topology Arc is shared, not rebuilt.
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        g.add_node(
            "src",
            Box::new(SourceNode::new(vec![tdata([21u32]), tbar(1)])),
            vec![],
            vec![c0],
        );
        g.add_node(
            "double",
            Box::new(EwNode::new(
                1,
                vec![EwInstr::Alu {
                    op: AluOp::Add,
                    a: Operand::Reg(0),
                    b: Operand::Reg(0),
                    dst: 1,
                }],
                vec![OutputSpec::plain([1])],
            )),
            vec![c0],
            vec![c1],
        );
        let (sink, template_handle) = SinkNode::new();
        g.add_node("sink", Box::new(sink), vec![c1], vec![]);
        g.finalize_topology();

        let mut handles = Vec::new();
        for _ in 0..3 {
            let mut inst = g.fresh_instance();
            assert!(
                std::ptr::eq(g.topology().unwrap(), inst.topology().unwrap()),
                "instances must share the topology Arc"
            );
            inst.run_untimed(1_000).unwrap();
            let h = inst
                .nodes()
                .iter()
                .find_map(|s| s.behavior.as_ref().unwrap().sink_handle())
                .expect("instance has a sink");
            handles.push(h);
        }
        for h in &handles {
            assert_eq!(h.tokens(), vec![tdata([42u32]), tbar(1)]);
        }
        // The template graph never ran: its source still holds tokens and
        // its sink collected nothing.
        assert!(template_handle.is_empty());
        assert_eq!(g.chans()[0].len(), 0);
        let report = g.run_untimed(1_000).unwrap();
        assert!(report.productive_steps > 0, "template still runnable");
        assert_eq!(template_handle.tokens(), vec![tdata([42u32]), tbar(1)]);
    }

    #[test]
    fn exec_report_merge_sums_counters_and_maxes_watermarks() {
        let mut a = ExecReport {
            rounds: 2,
            productive_steps: 5,
            steps: 8,
            peak_ready: 6,
        };
        let b = ExecReport {
            rounds: 1,
            productive_steps: 3,
            steps: 4,
            peak_ready: 9,
        };
        a.merge(&b);
        assert_eq!(
            a,
            ExecReport {
                rounds: 3,
                productive_steps: 8,
                steps: 12,
                peak_ready: 9,
            }
        );
        // Merging the other way keeps the same watermark: max, not sum.
        let mut c = ExecReport {
            peak_ready: 9,
            ..ExecReport::default()
        };
        c.merge(&ExecReport {
            peak_ready: 6,
            ..ExecReport::default()
        });
        assert_eq!(c.peak_ready, 9);
    }

    #[test]
    fn executors_record_the_peak_ready_watermark() {
        let build = || {
            let mut g = Graph::new();
            let c0 = g.add_chan(Channel::new(1));
            let c1 = g.add_chan(Channel::new(1));
            g.add_node(
                "src",
                Box::new(SourceNode::new(vec![tdata([4u32]), tbar(1)])),
                vec![],
                vec![c0],
            );
            g.add_node(
                "stage",
                Box::new(EwNode::passthrough(1)),
                vec![c0],
                vec![c1],
            );
            let (sink, _h) = SinkNode::new();
            g.add_node("sink", Box::new(sink), vec![c1], vec![]);
            g
        };
        // Round 0 seeds every node, so the watermark starts at node count
        // — fused (one bit per segment) and unfused alike here.
        let fused = build().run_untimed(1_000).unwrap();
        assert_eq!(fused.peak_ready, 3);
        let mut g = build();
        let (unfused, _) = ExecPlan::build_unfused(&g)
            .run(&mut g, &mut ResumeState::new(), 1_000, ObsSink::noop())
            .unwrap();
        assert_eq!(unfused.peak_ready, 3);
    }

    #[test]
    fn obs_dispatch_count_matches_report_steps() {
        let obs = revet_obs::ObsSink::with_trace_capacity(4096);
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        g.add_node(
            "src",
            Box::new(SourceNode::new(vec![tdata([4u32]), tbar(1)])),
            vec![],
            vec![c0],
        );
        g.add_node(
            "stage",
            Box::new(EwNode::passthrough(1)),
            vec![c0],
            vec![c1],
        );
        let (sink, _h) = SinkNode::new();
        g.add_node("sink", Box::new(sink), vec![c1], vec![]);
        let (report, _) = ExecPlan::build_unfused(&g)
            .run(&mut g, &mut ResumeState::new(), 1_000, &obs)
            .unwrap();
        assert_eq!(obs.counters.dispatches.get(), report.steps);
        assert_eq!(obs.counters.productive.get(), report.productive_steps);
        assert_eq!(obs.counters.rounds.get(), report.rounds);
        assert_eq!(obs.counters.peak_ready.get(), report.peak_ready);
        let traced = obs
            .trace_events()
            .iter()
            .filter(|e| matches!(e.kind, revet_obs::EventKind::NodeDispatch { .. }))
            .count() as u64;
        assert_eq!(traced, report.steps);
    }

    #[test]
    fn topology_index_invalidated_by_rewiring() {
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        g.add_node(
            "src",
            Box::new(SourceNode::new(vec![tdata([1u32])])),
            vec![],
            vec![c0],
        );
        g.finalize_topology();
        assert!(g.topology().is_some());
        let c1 = g.add_chan(Channel::new(1));
        assert!(g.topology().is_none(), "add_chan must invalidate");
        let (sink, _h) = SinkNode::new();
        g.add_node("sink", Box::new(sink), vec![c0], vec![]);
        let topo = g.finalize_topology();
        assert_eq!(topo.consumers(c0).len(), 1);
        assert_eq!(topo.producers(c0).len(), 1);
        assert!(topo.consumers(c1).is_empty());
    }

    /// src → double → sink with an initially empty source; `feed` tells the
    /// test which node to feed chunks into.
    fn streaming_pipeline() -> (Graph, NodeId, crate::nodes::SinkHandle) {
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        let src = g.add_node(
            "src",
            Box::new(SourceNode::new(Vec::new())),
            vec![],
            vec![c0],
        );
        g.add_node(
            "double",
            Box::new(EwNode::new(
                1,
                vec![EwInstr::Alu {
                    op: AluOp::Add,
                    a: Operand::Reg(0),
                    b: Operand::Reg(0),
                    dst: 1,
                }],
                vec![OutputSpec::plain([1])],
            )),
            vec![c0],
            vec![c1],
        );
        let (sink, handle) = SinkNode::new();
        g.add_node("sink", Box::new(sink), vec![c1], vec![]);
        (g, src, handle)
    }

    #[test]
    fn resumable_interpreter_chunked_feed_matches_one_shot() {
        // One-shot reference: all input up front.
        let (mut one, src, oh) = streaming_pipeline();
        one.feed_source(src, vec![tdata([1u32]), tbar(1), tdata([2u32]), tbar(1)])
            .unwrap();
        one.run_untimed(1_000).unwrap();

        // Chunked on the all-boxed plan: feed one argset, run, feed the
        // next, run again.
        let (mut g, src, handle) = streaming_pipeline();
        let plan = ExecPlan::build_unfused(&g);
        let mut resume = ResumeState::new();
        let mut run = |g: &mut Graph| plan.run(g, &mut resume, 1_000, ObsSink::noop()).unwrap();
        let (_, s) = run(&mut g);
        assert_eq!(s, RunStatus::Finished, "empty stream drains cleanly");
        g.feed_source(src, vec![tdata([1u32]), tbar(1)]).unwrap();
        let (r1, s) = run(&mut g);
        assert_eq!(s, RunStatus::Finished);
        assert_eq!(handle.tokens(), vec![tdata([2u32]), tbar(1)]);
        g.feed_source(src, vec![tdata([2u32]), tbar(1)]).unwrap();
        let (r2, s) = run(&mut g);
        assert_eq!(s, RunStatus::Finished);
        assert_eq!(handle.tokens(), oh.tokens(), "chunked ≡ one-shot sink");
        // The second poll's delta is readable through the cursor view.
        assert_eq!(handle.tokens_from(2), vec![tdata([4u32]), tbar(1)]);
        assert!(handle.tokens_from(99).is_empty());
        let mut merged = r1;
        merged.merge(&r2);
        assert_eq!(merged.steps, r1.steps + r2.steps);
    }

    #[test]
    fn resumable_run_pauses_on_stuck_tokens_instead_of_deadlocking() {
        // A zip starved on one input: one-shot reports deadlock; the
        // resumable run pauses, and feeding the missing side finishes it.
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        let c2 = g.add_chan(Channel::new(2));
        g.add_node(
            "src.a",
            Box::new(SourceNode::new(vec![tdata([1u32])])),
            vec![],
            vec![c0],
        );
        let src_b = g.add_node(
            "src.b",
            Box::new(SourceNode::new(Vec::new())),
            vec![],
            vec![c1],
        );
        g.add_node(
            "zip",
            Box::new(EwNode::passthrough(2)),
            vec![c0, c1],
            vec![c2],
        );
        let (sink, handle) = SinkNode::new();
        g.add_node("sink", Box::new(sink), vec![c2], vec![]);
        let plan = ExecPlan::build_unfused(&g);
        let mut resume = ResumeState::new();
        let (_, s) = plan
            .run(&mut g, &mut resume, 1_000, ObsSink::noop())
            .unwrap();
        assert_eq!(s, RunStatus::Paused, "stuck token pauses, not deadlocks");
        assert!(g.resident_bytes() > 0, "paused state holds resident tokens");
        assert!(g.deadlock_error().message.contains("'zip'"));
        g.feed_source(src_b, vec![tdata([2u32])]).unwrap();
        let (_, s) = plan
            .run(&mut g, &mut resume, 1_000, ObsSink::noop())
            .unwrap();
        assert_eq!(s, RunStatus::Finished);
        assert_eq!(handle.tokens(), vec![tdata([1u32, 2u32])]);
    }

    #[test]
    fn resumable_planned_chunked_feed_matches_one_shot() {
        let (mut one, src, oh) = streaming_pipeline();
        one.feed_source(src, vec![tdata([3u32]), tbar(1), tdata([5u32]), tbar(1)])
            .unwrap();
        one.run_untimed(1_000).unwrap();

        let (mut g, src, handle) = streaming_pipeline();
        let plan = ExecPlan::build(&g);
        let mut resume = ResumeState::new();
        g.feed_source(src, vec![tdata([3u32]), tbar(1)]).unwrap();
        let (r1, s) = plan
            .run(&mut g, &mut resume, 1_000, ObsSink::noop())
            .unwrap();
        assert_eq!(s, RunStatus::Finished);
        assert_eq!(handle.tokens(), vec![tdata([6u32]), tbar(1)]);
        g.feed_source(src, vec![tdata([5u32]), tbar(1)]).unwrap();
        let (r2, s) = plan
            .run(&mut g, &mut resume, 1_000, ObsSink::noop())
            .unwrap();
        assert_eq!(s, RunStatus::Finished);
        assert_eq!(handle.tokens(), oh.tokens(), "chunked ≡ one-shot (planned)");
        assert!(r1.steps > 0 && r2.steps > 0);
    }

    #[test]
    fn feed_source_rejects_non_source_nodes() {
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let (sink, _h) = SinkNode::new();
        let id = g.add_node("sink", Box::new(sink), vec![c0], vec![]);
        let err = g.feed_source(id, vec![tdata([1u32])]).unwrap_err();
        assert!(err.message.contains("cannot feed"), "got: {err}");
        assert_eq!(err.node.as_deref(), Some("sink"));
    }

    #[test]
    fn resident_bytes_tracks_queued_and_pending_tokens() {
        let (mut g, src, _handle) = streaming_pipeline();
        assert_eq!(g.resident_bytes(), 0, "empty stream holds nothing");
        g.feed_source(src, vec![tdata([7u32]), tbar(1)]).unwrap();
        let pending = g.resident_bytes();
        assert!(pending > 0, "fed tokens are resident in the source");
        g.run_untimed(1_000).unwrap();
        // Tokens moved to the sink buffer; still resident in the session.
        assert!(g.resident_bytes() > 0);
    }
}
