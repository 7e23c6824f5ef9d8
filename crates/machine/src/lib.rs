//! # revet-machine — the abstract dataflow-threads machine
//!
//! Executable semantics for the generic dataflow model of §III of *"Revet:
//! A Language and Compiler for Dataflow Threads"* (HPCA 2024): streaming
//! tensor primitives over SLTF links, composed into dataflow graphs, plus an
//! untimed Kahn-style executor used as the functional reference for compiled
//! programs.
//!
//! The primitive set ([`nodes`]) matches §III-B:
//!
//! | Paper primitive          | Node                              |
//! |--------------------------|-----------------------------------|
//! | element-wise / filter    | [`nodes::EwNode`] (+ predicated outputs) |
//! | expansion: counter       | [`nodes::CounterNode`]            |
//! | expansion: broadcast     | [`nodes::BroadcastNode`]          |
//! | fork (expand + flatten)  | [`nodes::ForkNode`]               |
//! | reduction                | [`nodes::ReduceNode`]             |
//! | flattening / loop exit   | [`nodes::FlattenNode`]            |
//! | forward merge            | [`nodes::FwdMergeNode`]           |
//! | forward-backward merge   | [`nodes::FbMergeNode`]            |
//!
//! All primitives observe the two SLTF composability rules: barriers pass
//! through exactly once, in order, and data never reorders across barriers.
//!
//! The untimed executor is one scheduler, [`ExecPlan`]: a finished graph
//! flattens once into fused element-wise segments, native sink drains, a
//! bitmap worklist, and a boxed fallback for everything else. The worklist
//! is **event-driven** — a node is re-stepped only when an input channel
//! gains tokens, a full output channel regains capacity, or an allocator
//! queue it can block on receives a pointer. Kahn semantics make the
//! results scheduler-order independent, so the fused plan and the
//! all-boxed reference ([`ExecPlan::build_unfused`]) produce identical
//! streams and memory. [`ExecPlan::run`] is resumable (streaming feeds
//! it chunk by chunk); [`Graph::run_untimed`] is the one-shot helper for
//! hand-built graphs.

//! ## Example: a `foreach` as counter + reduce (paper Fig. 2)
//!
//! ```
//! use revet_machine::{Channel, Graph, tdata, tbar};
//! use revet_machine::nodes::{CounterNode, ReduceNode, SinkNode, SourceNode};
//! use revet_machine::instr::{AluOp, Operand};
//!
//! let mut g = Graph::new();
//! let a = g.add_chan(Channel::new(1));
//! let b = g.add_chan(Channel::new(1));
//! let d = g.add_chan(Channel::new(1));
//! g.add_node("enter", Box::new(SourceNode::new(vec![tdata([3u32]), tbar(1)])), vec![], vec![a]);
//! g.add_node(
//!     "counter",
//!     Box::new(CounterNode::new(Operand::imm(0u32), Operand::Reg(0), Operand::imm(1u32))),
//!     vec![a],
//!     vec![b],
//! );
//! g.add_node("reduce", Box::new(ReduceNode::new(AluOp::Add, 0u32)), vec![b], vec![d]);
//! let (sink, out) = SinkNode::new();
//! g.add_node("exit", Box::new(sink), vec![d], vec![]);
//! g.run_untimed(1_000).unwrap();
//! // sum(0..3) = 3, still a 1-D stream of one thread.
//! assert_eq!(out.tokens(), vec![tdata([3u32]), tbar(1)]);
//! ```

#![warn(missing_docs)]

mod channel;
mod graph;
pub mod instr;
mod mem;
mod node;
pub mod nodes;
mod plan;
mod ring;
mod tuple;

pub use channel::{Channel, LinkClass};
pub use graph::{Graph, NodeSlot, TopologyIndex, UnitClass};
pub use mem::{AllocId, AllocQueue, MemoryState, SramId, SramRegion};
pub use node::{ChanId, FusedSpec, IoEvents, MachineError, Node, NodeId, NodeIo, PortBudget};
pub use plan::{ExecPlan, ExecReport, PlanStats, ResumeState, RunStatus};
pub use ring::Ring;
pub use tuple::{tbar, tdata, TTok, Tuple};
