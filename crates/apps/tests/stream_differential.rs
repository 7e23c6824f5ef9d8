//! Streaming-session differential: on every Table III app, feeding K
//! argument sets one at a time through a [`StreamInstance`] — polling the
//! resumable executor to quiescence between chunks — must be bit-identical
//! (sink token stream and full DRAM image) to a one-shot session given all
//! K argsets up front, at O0 and O2 and on both the fused and the unfused
//! plan. The DRAM image
//! must also pass the app's own oracle: repeated argsets re-run `main`
//! with the same inputs, and every app's writes are idempotent, so the
//! workload's expected image stays valid however many times it is fed.

use revet_apps::all_apps;
use revet_core::{PassOptions, StreamExecutor};

const SEED: u64 = 0x57AE;
const MAX_ROUNDS: u64 = 200_000_000;
const CHUNKS: usize = 3;

#[test]
fn chunked_feed_matches_one_shot_on_all_apps() {
    for app in all_apps() {
        for level in [0u8, 2] {
            let opts = PassOptions {
                opt_level: level,
                ..PassOptions::default()
            };
            let (program, args, w) = app.prepare(2, 8, SEED, &opts);
            let argsets: Vec<_> = (0..CHUNKS).map(|_| args.clone()).collect();

            // One-shot reference: one session, all argsets up front.
            let mut oneshot = program.stream(StreamExecutor::Planned);
            assert_eq!(oneshot.feed(&argsets).unwrap(), CHUNKS);
            let reference = oneshot
                .finish(MAX_ROUNDS)
                .unwrap_or_else(|e| panic!("{} (O{level}, one-shot): {e}", app.name));
            app.check_dram(&reference.memory.dram, &w);

            for executor in [StreamExecutor::Planned, StreamExecutor::Unfused] {
                let mut stream = program.stream(executor);
                let mut deltas = Vec::new();
                for args in &argsets {
                    assert_eq!(stream.feed(std::slice::from_ref(args)).unwrap(), 1);
                    let (delta, _) = stream
                        .poll(MAX_ROUNDS)
                        .unwrap_or_else(|e| panic!("{} (O{level}, {executor:?}): {e}", app.name));
                    deltas.extend(delta);
                }
                let out = stream.finish(MAX_ROUNDS).unwrap_or_else(|e| {
                    panic!("{} (O{level}, {executor:?} finish): {e}", app.name)
                });
                assert_eq!(
                    out.sink, reference.sink,
                    "{} (O{level}, {executor:?}): sink stream must match one-shot",
                    app.name
                );
                assert_eq!(
                    deltas, reference.sink,
                    "{} (O{level}, {executor:?}): poll deltas must concatenate to the one-shot stream",
                    app.name
                );
                assert_eq!(
                    out.memory.dram, reference.memory.dram,
                    "{} (O{level}, {executor:?}): full DRAM image must match one-shot",
                    app.name
                );
                app.check_dram(&out.memory.dram, &w);
            }
        }
    }
}
