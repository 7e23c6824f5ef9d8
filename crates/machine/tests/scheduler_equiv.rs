//! Scheduler-equivalence property tests: the fused execution plan
//! ([`ExecPlan::build`]) and the all-boxed reference plan
//! ([`ExecPlan::build_unfused`]) must produce identical sink token streams
//! and identical [`MemoryState`] on randomly generated acyclic graphs —
//! one-shot and fed in chunks. Kahn determinism means results are
//! independent of the order in which ready nodes are drained and of how
//! the input is split, and the plan's fused segments must be
//! observationally invisible.
//!
//! The generator grows a DAG from one source by three count-preserving
//! construction moves, so any two open channels always carry the same
//! tensor structure and may be zipped:
//!
//! - **map**: an element-wise node transforming the value (`x op imm`),
//! - **dup**: an element-wise node duplicating a stream onto two channels,
//! - **zip**: an element-wise node combining two open channels into one.
//!
//! A subset of nodes additionally writes its values into a node-private
//! DRAM window, so memory equality is exercised too (windows are disjoint:
//! cross-node write ordering is schedule-dependent, but each node's own
//! stream — and therefore its own write sequence — is deterministic).

use proptest::prelude::*;
use revet_machine::instr::{AluOp, EwInstr, Operand};
use revet_machine::nodes::{EwNode, OutputSpec, SinkHandle, SinkNode, SourceNode};
use revet_machine::{
    tbar, tdata, Channel, ExecPlan, ExecReport, Graph, MemoryState, NodeId, ResumeState, RunStatus,
    TTok,
};
use revet_obs::ObsSink;

/// One construction move, decoded from a raw u32.
#[derive(Clone, Copy, Debug)]
enum Move {
    Map { sel: u32, op: u32 },
    Dup { sel: u32 },
    Zip { sel_a: u32, sel_b: u32 },
}

fn decode(raw: u32) -> Move {
    let kind = raw % 3;
    let a = (raw / 3) % 1009;
    let b = (raw / 3037) % 1013;
    match kind {
        0 => Move::Map { sel: a, op: b },
        1 => Move::Dup { sel: a },
        _ => Move::Zip { sel_a: a, sel_b: b },
    }
}

/// Bytes reserved per writer node (16 word slots).
const WINDOW: usize = 64;

/// The source stream for a value list: data tokens with ragged mid-stream
/// barriers, closed by one Ω1.
fn source_tokens(values: &[u32]) -> Vec<TTok> {
    let mut toks: Vec<TTok> = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        toks.push(tdata([v]));
        if v % 7 == 0 {
            toks.push(tbar(1)); // ragged tensors: barriers mid-stream
        }
        if i + 1 == values.len() {
            toks.push(tbar(1));
        }
    }
    toks
}

/// Builds the graph described by (`toks`, `moves`); every node whose
/// index is divisible by 3 also writes its stream into a private DRAM
/// window. Returns the source node id (streaming tests feed it
/// incrementally) and the sink handles (one per remaining open channel).
fn build(toks: Vec<TTok>, moves: &[u32]) -> (Graph, NodeId, Vec<SinkHandle>) {
    let mut g = Graph::new();
    let mut writer_count = 0u32;
    let first = g.add_chan(Channel::new(1));
    let src_id = g.add_node("src", Box::new(SourceNode::new(toks)), vec![], vec![first]);
    let mut open = vec![first];

    // Instructions shared by every generated node: an optional DRAM tap
    // writing reg0 into the node's private window at (reg0 & 15)*4.
    let mut tap = |instrs: &mut Vec<EwInstr>, node_idx: usize| {
        if !node_idx.is_multiple_of(3) {
            return;
        }
        let base = writer_count * WINDOW as u32;
        writer_count += 1;
        instrs.push(EwInstr::Alu {
            op: AluOp::And,
            a: Operand::Reg(0),
            b: Operand::imm(15u32),
            dst: 3,
        });
        instrs.push(EwInstr::Alu {
            op: AluOp::Mul,
            a: Operand::Reg(3),
            b: Operand::imm(4u32),
            dst: 3,
        });
        instrs.push(EwInstr::Alu {
            op: AluOp::Add,
            a: Operand::Reg(3),
            b: Operand::imm(base),
            dst: 3,
        });
        instrs.push(EwInstr::DramWriteW {
            addr: Operand::Reg(3),
            val: Operand::Reg(0),
            pred: None,
        });
    };

    for (node_idx, &raw) in moves.iter().enumerate() {
        match decode(raw) {
            Move::Map { sel, op } => {
                let src = open.remove(sel as usize % open.len());
                let dst = g.add_chan(Channel::new(1));
                let alu = match op % 4 {
                    0 => AluOp::Add,
                    1 => AluOp::Xor,
                    2 => AluOp::Mul,
                    _ => AluOp::Rotl,
                };
                let mut instrs = vec![EwInstr::Alu {
                    op: alu,
                    a: Operand::Reg(0),
                    b: Operand::imm(1 + op % 13),
                    dst: 0,
                }];
                tap(&mut instrs, node_idx);
                g.add_node(
                    format!("map{node_idx}"),
                    Box::new(EwNode::new(1, instrs, vec![OutputSpec::plain([0])])),
                    vec![src],
                    vec![dst],
                );
                open.push(dst);
            }
            Move::Dup { sel } => {
                let src = open.remove(sel as usize % open.len());
                let d0 = g.add_chan(Channel::new(1));
                let d1 = g.add_chan(Channel::new(1));
                let mut instrs = Vec::new();
                tap(&mut instrs, node_idx);
                g.add_node(
                    format!("dup{node_idx}"),
                    Box::new(EwNode::new(
                        1,
                        instrs,
                        vec![OutputSpec::plain([0]), OutputSpec::plain([0])],
                    )),
                    vec![src],
                    vec![d0, d1],
                );
                open.push(d0);
                open.push(d1);
            }
            Move::Zip { sel_a, sel_b } => {
                if open.len() < 2 {
                    continue;
                }
                let a = open.remove(sel_a as usize % open.len());
                let b = open.remove(sel_b as usize % open.len());
                let dst = g.add_chan(Channel::new(1));
                let mut instrs = vec![EwInstr::Alu {
                    op: AluOp::Add,
                    a: Operand::Reg(0),
                    b: Operand::Reg(1),
                    dst: 0,
                }];
                tap(&mut instrs, node_idx);
                g.add_node(
                    format!("zip{node_idx}"),
                    Box::new(EwNode::new(2, instrs, vec![OutputSpec::plain([0])])),
                    vec![a, b],
                    vec![dst],
                );
                open.push(dst);
            }
        }
    }

    let mut handles = Vec::new();
    for (i, c) in open.into_iter().enumerate() {
        let (sink, h) = SinkNode::new();
        g.add_node(format!("sink{i}"), Box::new(sink), vec![c], vec![]);
        handles.push(h);
    }
    g.mem = MemoryState::with_dram_size(WINDOW * (writer_count as usize + 1));
    (g, src_id, handles)
}

fn snapshot(handles: &[SinkHandle]) -> Vec<Vec<TTok>> {
    handles.iter().map(|h| h.tokens()).collect()
}

/// One-shot run: a clean drain is required (generated DAGs never
/// deadlock).
fn run_once(plan: &ExecPlan, g: &mut Graph) -> ExecReport {
    let (report, status) = plan
        .run(g, &mut ResumeState::new(), 100_000, ObsSink::noop())
        .unwrap();
    assert_eq!(status, RunStatus::Finished, "one-shot run must drain");
    report
}

/// Feeds `toks` into source `src` in the chunks `bounds` delimits, running
/// `plan` to quiescence after each chunk; returns the last run's status.
fn run_chunked(
    plan: &ExecPlan,
    g: &mut Graph,
    src: NodeId,
    toks: &[TTok],
    bounds: &[usize],
) -> RunStatus {
    let mut resume = ResumeState::new();
    let mut last = RunStatus::Finished;
    for w in bounds.windows(2) {
        g.feed_source(src, toks[w[0]..w[1]].to_vec()).unwrap();
        (_, last) = plan.run(g, &mut resume, 100_000, ObsSink::noop()).unwrap();
    }
    last
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fused and the unfused plan of the same random DAG agree on
    /// every sink stream and on the entire memory state (DRAM bytes, SRAM,
    /// allocators, and traffic counters), while the fused plan attempts no
    /// more steps than the unfused one and does the same productive work
    /// in no more dispatches. Every generated interior node is an
    /// `EwNode`, so the fused plan exercises its fused path on the whole
    /// DAG (sources stay boxed).
    #[test]
    fn fused_plan_matches_unfused_plan(
        values in prop::collection::vec(0u32..100, 0..14),
        moves in prop::collection::vec(0u32..3_000_000, 0..18),
    ) {
        let (mut ug, _, uh) = build(source_tokens(&values), &moves);
        let unfused_plan = ExecPlan::build_unfused(&ug);
        let unfused = run_once(&unfused_plan, &mut ug);
        let (mut fg, _, fh) = build(source_tokens(&values), &moves);
        let fused_plan = ExecPlan::build(&fg);
        let fused = run_once(&fused_plan, &mut fg);

        let stats = fused_plan.stats();
        prop_assert_eq!(
            stats.fused_ew + stats.fused_sinks + 1,
            stats.nodes,
            "everything but the source lowers: {:?}", stats
        );
        let ustats = unfused_plan.stats();
        prop_assert_eq!(ustats.boxed, ustats.nodes, "fusion off boxes every node");

        prop_assert_eq!(snapshot(&uh), snapshot(&fh));
        prop_assert_eq!(&ug.mem, &fg.mem);
        // A fused segment fires all its stages in one dispatch, so fusion
        // can only remove scheduler work.
        prop_assert!(
            fused.steps <= unfused.steps,
            "fused plan did more work ({} > {})", fused.steps, unfused.steps
        );
    }

    /// Streaming bit-identity on random DAGs: feeding the source stream in
    /// K chunks at arbitrary token boundaries — with a resumable run after
    /// each chunk — yields exactly the one-shot sink streams and memory
    /// state, on both the unfused and the fused plan. Chunking
    /// only perturbs the schedule, and Kahn semantics make the result
    /// schedule-independent; intermediate polls may legitimately pause
    /// with in-flight tokens, but the final poll must drain clean.
    #[test]
    fn chunked_feed_matches_one_shot(
        values in prop::collection::vec(0u32..100, 0..14),
        moves in prop::collection::vec(0u32..3_000_000, 0..18),
        cuts in prop::collection::vec(0usize..64, 0..5),
    ) {
        let toks = source_tokens(&values);
        let (mut one_g, _, one_h) = build(toks.clone(), &moves);
        run_once(&ExecPlan::build_unfused(&one_g), &mut one_g);

        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (toks.len() + 1)).collect();
        bounds.push(0);
        bounds.push(toks.len());
        bounds.sort_unstable();
        bounds.dedup();

        // Both plans, chunked (each built once, before any input).
        for fuse in [false, true] {
            let (mut g, src, h) = build(Vec::new(), &moves);
            let plan = if fuse { ExecPlan::build(&g) } else { ExecPlan::build_unfused(&g) };
            let last = run_chunked(&plan, &mut g, src, &toks, &bounds);
            prop_assert_eq!(last, RunStatus::Finished, "final drain (fused: {})", fuse);
            prop_assert_eq!(snapshot(&one_h), snapshot(&h));
            prop_assert_eq!(&one_g.mem, &g.mem);
        }
    }
}
