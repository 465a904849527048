//! Allocation and throughput gate for the zero-copy workspace pipeline.
//!
//! Runs the same end-to-end chain (build frame → indoor channel →
//! front end → decode) twice: once through the owned, allocating APIs
//! and once through the `*_into` workspace pipeline, under a counting
//! global allocator. Also profiles the streaming receive path
//! (`receive_stream` vs `receive_stream_into`, which must be
//! allocation-free at steady state), the resilient session path
//! (`send_packet_resilient` vs the `_summary` variant), and the transmit
//! control path (`build_frame` + `PowerController::embed` +
//! `to_time_samples` vs `build_frame_into` + `embed_into` + `render`,
//! which must also be allocation-free at steady state). Writes the
//! comparison to `BENCH_pr4.json` in the current directory and, with
//! `--check`, exits non-zero unless the workspace path allocates at most
//! a tenth of what the owned path does per frame (the PR 4 acceptance
//! floor), the streaming workspace rx and the embedding workspace tx
//! paths allocate nothing per frame, and the resilient summary path
//! allocates strictly less than the report-building one.
//!
//! PR 9 adds a batched-decode phase: `RxPipeline::decode_batch_into`
//! over a full lane group with a reused [`SymbolBatch`] must also be
//! allocation-free at steady state (and decode the same frames as the
//! per-frame `decode_into` loop it replaces).
//!
//! PR 10 adds a channel-batch phase: `Link::transmit_batch_into` over a
//! full lane group of same-length waveforms with a reused
//! [`ChannelBatch`] (the engine's lockstep impair path) must be
//! allocation-free at steady state, gated against the per-frame
//! `transmit_into` loop it batches.
//!
//! The retained-heap phase pools sessions in a `SessionPool`, drains one
//! 1020-B frame at 6 Mbps per session through a warmed `BatchEngine`, and
//! reports the live heap bytes each pooled session keeps afterwards.
//! Frame-sized buffers belong to the engine's workers, not to sessions,
//! so `--check` fails above 64 KiB per session.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use cos_bench::bench_payload;
use cos_channel::{BatchFrame, ChannelBatch, ChannelConfig, Link};
use cos_core::engine::{BatchEngine, EngineConfig, SessionPool};
use cos_core::session::{CosSession, SessionConfig};
use cos_core::PowerController;
use cos_dsp::lanes::LANES;
use cos_dsp::{Complex, KernelMode};
use cos_fec::SymbolBatch;
use cos_phy::rates::DataRate;
use cos_phy::rx::{Receiver, RxConfig};
use cos_phy::tx::Transmitter;
use cos_phy::{PhyWorkspace, RxBatchFrame, RxPipeline, TxPipeline};

/// Forwards to the system allocator while counting every allocation
/// (alloc + realloc) and the bytes requested.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated (allocations minus frees).
static LIVE: AtomicI64 = AtomicI64::new(0);
static TRACE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

thread_local! {
    static IN_TRACE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn trace_alloc(size: usize) {
    if !TRACE.load(Ordering::Relaxed) {
        return;
    }
    IN_TRACE.with(|c| {
        if !c.get() {
            c.set(true);
            let bt = std::backtrace::Backtrace::force_capture();
            eprintln!("ALLOC {size} bytes at:\n{bt}");
            c.set(false);
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        trace_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counters() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

const WARMUP_FRAMES: usize = 4;
const MEASURED_FRAMES: usize = 40;
const SNR_DB: f64 = 20.0;

struct Measurement {
    allocs_per_frame: f64,
    bytes_per_frame: f64,
    frames_per_sec: f64,
    crc_ok: usize,
}

/// Runs `frames` iterations of `step` after a warmup, returning the
/// per-frame allocation profile and throughput.
fn measure(mut step: impl FnMut() -> bool) -> Measurement {
    for _ in 0..WARMUP_FRAMES {
        black_box(step());
    }
    let (a0, b0) = counters();
    let start = Instant::now();
    let mut crc_ok = 0usize;
    for _ in 0..MEASURED_FRAMES {
        if black_box(step()) {
            crc_ok += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let (a1, b1) = counters();
    Measurement {
        allocs_per_frame: (a1 - a0) as f64 / MEASURED_FRAMES as f64,
        bytes_per_frame: (b1 - b0) as f64 / MEASURED_FRAMES as f64,
        frames_per_sec: MEASURED_FRAMES as f64 / elapsed,
        crc_ok,
    }
}

fn run_owned() -> Measurement {
    let payload = bench_payload();
    let mut link = Link::new(ChannelConfig::default(), SNR_DB, 42);
    let tx = Transmitter::new();
    let rx = Receiver::new();
    measure(|| {
        let frame = tx.build_frame(&payload, DataRate::Mbps24, 0x5D);
        let rx_samples = link.transmit(&frame.to_time_samples());
        match rx.receive(&rx_samples, &RxConfig::ideal()) {
            Ok(decoded) => decoded.crc_ok(),
            Err(_) => false,
        }
    })
}

fn run_workspace() -> Measurement {
    let payload = bench_payload();
    let mut link = Link::new(ChannelConfig::default(), SNR_DB, 42);
    let tx = TxPipeline::new();
    let rx = RxPipeline::new();
    let mut ws = PhyWorkspace::new();
    measure(move || {
        tx.build_and_render(&payload, DataRate::Mbps24, 0x5D, &mut ws.tx);
        link.transmit_into(&ws.tx.samples, &mut ws.rx.samples);
        let cos_phy::RxWorkspace { samples, fe, scratch, out, .. } = &mut ws.rx;
        match rx.receiver().front_end_into(samples, fe) {
            Ok(()) => {
                rx.receiver().decode_into(fe, None, scratch, out);
                out.crc_ok
            }
            Err(_) => false,
        }
    })
}

/// Idle samples before the frame in the streaming-rx scenarios, so the
/// synchroniser genuinely has to find the preamble.
const STREAM_PAD: usize = 96;

fn run_stream_owned() -> Measurement {
    let payload = bench_payload();
    let mut link = Link::new(ChannelConfig::default(), SNR_DB, 42);
    let tx = Transmitter::new();
    let rx = Receiver::new();
    measure(|| {
        let frame = tx.build_frame(&payload, DataRate::Mbps24, 0x5D);
        let rx_samples = link.transmit(&frame.to_time_samples());
        let mut stream = vec![Complex::ZERO; STREAM_PAD];
        stream.extend_from_slice(&rx_samples);
        match rx.receive_stream(&stream, &RxConfig::ideal()) {
            Ok((_, decoded)) => decoded.crc_ok(),
            Err(_) => false,
        }
    })
}

fn run_stream_workspace() -> Measurement {
    let payload = bench_payload();
    let mut link = Link::new(ChannelConfig::default(), SNR_DB, 42);
    let tx = TxPipeline::new();
    let rx = RxPipeline::new();
    let mut ws = PhyWorkspace::new();
    let mut stream: Vec<Complex> = Vec::new();
    measure(move || {
        tx.build_and_render(&payload, DataRate::Mbps24, 0x5D, &mut ws.tx);
        link.transmit_into(&ws.tx.samples, &mut ws.rx.samples);
        stream.clear();
        stream.resize(STREAM_PAD, Complex::ZERO);
        stream.extend_from_slice(&ws.rx.samples);
        match rx.receiver().receive_stream_into(&stream, &RxConfig::ideal(), &mut ws.rx) {
            Ok(_) => ws.rx.out.crc_ok,
            Err(_) => false,
        }
    })
}

/// Control subcarriers and bits for the tx+embed scenarios (the same
/// shape the power-controller unit tests use).
const EMBED_SELECTED: [usize; 6] = [3, 11, 19, 27, 35, 43];
const EMBED_BITS: [u8; 8] = [1, 0, 1, 1, 0, 1, 0, 0];

fn run_embed_owned() -> Measurement {
    let payload = bench_payload();
    let tx = Transmitter::new();
    let pc = PowerController::default();
    measure(|| {
        let mut frame = tx.build_frame(&payload, DataRate::Mbps24, 0x5D);
        let positions = pc.embed(&mut frame, &EMBED_SELECTED, &EMBED_BITS).expect("fits");
        let samples = frame.to_time_samples();
        !positions.is_empty() && !samples.is_empty()
    })
}

fn run_embed_workspace() -> Measurement {
    let payload = bench_payload();
    let txp = TxPipeline::new();
    let pc = PowerController::default();
    let mut ws = PhyWorkspace::new();
    let mut positions: Vec<usize> = Vec::new();
    measure(move || {
        txp.transmitter().build_frame_into(&payload, DataRate::Mbps24, 0x5D, &mut ws.tx);
        pc.embed_into(&mut ws.tx.frame, &EMBED_SELECTED, &EMBED_BITS, &mut positions)
            .expect("fits");
        let n = ws.tx.render().len();
        !positions.is_empty() && n > 0
    })
}

/// Shared setup for the batched-decode scenarios: `LANES` frames carried
/// through distinct channel realisations and front-ended once into their
/// own workspaces. The decode stage then re-runs repeatedly over the
/// frozen front ends, which is exactly the shape of an engine drain.
fn batch_workspaces() -> Vec<PhyWorkspace> {
    let payload = bench_payload();
    let mut link = Link::new(ChannelConfig::default(), SNR_DB, 42);
    let tx = TxPipeline::new();
    let rx = RxPipeline::new();
    let mut wss: Vec<PhyWorkspace> = (0..LANES).map(|_| PhyWorkspace::new()).collect();
    for ws in wss.iter_mut() {
        tx.build_and_render(&payload, DataRate::Mbps24, 0x5D, &mut ws.tx);
        link.transmit_into(&ws.tx.samples, &mut ws.rx.samples);
        let cos_phy::RxWorkspace { samples, fe, .. } = &mut ws.rx;
        rx.receiver().front_end_into(samples, fe).expect("clean front end");
    }
    wss
}

/// Per-frame reference: a plain `decode_into` loop over the lane group.
fn run_batch_decode_per_frame() -> Measurement {
    let rx = RxPipeline::new();
    let mut wss = batch_workspaces();
    measure(move || {
        let mut ok = true;
        for ws in wss.iter_mut() {
            let cos_phy::RxWorkspace { fe, scratch, out, .. } = &mut ws.rx;
            rx.receiver().decode_into(fe, None, scratch, out);
            ok &= out.crc_ok;
        }
        ok
    })
}

/// Batched path: one `decode_batch_into` call per step, lane frames built
/// on the stack and the `SymbolBatch` staging buffer reused throughout.
fn run_batch_decode_lockstep() -> Measurement {
    let rx = RxPipeline::new();
    let mut wss = batch_workspaces();
    let mut batch = SymbolBatch::new();
    measure(move || {
        let mut it = wss.iter_mut().map(|ws| {
            let cos_phy::RxWorkspace { fe, scratch, out, .. } = &mut ws.rx;
            RxBatchFrame::new(&*fe, None, scratch, out)
        });
        let mut frames: [RxBatchFrame<'_>; LANES] =
            std::array::from_fn(|_| it.next().expect("LANES workspaces"));
        rx.decode_batch_into(&mut frames, &mut batch);
        frames.iter().all(|f| f.out.crc_ok)
    })
}

/// Shared setup for the channel-batch scenarios: a full lane group of
/// links with distinct seeds carrying the same rendered waveform shape —
/// the exact situation the engine's batched-air stage hands to
/// `Link::transmit_batch_into`.
fn channel_batch_setup() -> (Vec<Link>, Vec<Vec<Complex>>, Vec<Vec<Complex>>) {
    let payload = bench_payload();
    let tx = TxPipeline::new();
    let mut ws = PhyWorkspace::new();
    let links: Vec<Link> = (0..LANES)
        .map(|k| Link::new(ChannelConfig::default(), SNR_DB, 42 + k as u64))
        .collect();
    let txs: Vec<Vec<Complex>> = (0..LANES)
        .map(|_| {
            tx.build_and_render(&payload, DataRate::Mbps24, 0x5D, &mut ws.tx);
            ws.tx.samples.clone()
        })
        .collect();
    let rxs = vec![Vec::new(); LANES];
    (links, txs, rxs)
}

/// Per-frame reference: a plain `transmit_into` loop over the lane group.
fn run_channel_per_frame() -> Measurement {
    let (mut links, txs, mut rxs) = channel_batch_setup();
    measure(move || {
        for ((link, tx), rx) in links.iter_mut().zip(&txs).zip(rxs.iter_mut()) {
            link.transmit_into(tx, rx);
        }
        rxs.iter().all(|rx| !rx.is_empty())
    })
}

/// Lockstep path: one `transmit_batch_into` call per step with the
/// `ChannelBatch` SoA staging reused throughout.
fn run_channel_lockstep() -> Measurement {
    let (mut links, txs, mut rxs) = channel_batch_setup();
    let mut scratch = ChannelBatch::default();
    measure(move || {
        let mut it = links
            .iter_mut()
            .zip(txs.iter())
            .zip(rxs.iter_mut())
            .map(|((link, tx), rx)| (link, tx.as_slice(), rx));
        let mut frames: [Option<BatchFrame<'_>>; LANES] = std::array::from_fn(|_| it.next());
        Link::transmit_batch_into_with(&mut frames, KernelMode::Lanes, &mut scratch);
        rxs.iter().all(|rx| !rx.is_empty())
    })
}

fn resilient_session() -> CosSession {
    CosSession::new(SessionConfig { snr_db: SNR_DB, ..Default::default() }, 42)
}

fn run_resilient_report() -> Measurement {
    let payload = bench_payload();
    let mut session = resilient_session();
    measure(move || session.send_packet_resilient(&payload).packet.data_ok)
}

fn run_resilient_summary() -> Measurement {
    let payload = bench_payload();
    let mut session = resilient_session();
    measure(move || session.send_packet_resilient_summary(&payload).packet.data_ok)
}

/// Sessions pooled in the retained-heap scenario.
const POOLED_SESSIONS: usize = 64;
/// Most heap bytes a warmed pooled session may keep.
const SESSION_HEAP_LIMIT: f64 = 64.0 * 1024.0;

/// Creates `n` 6 Mbps sessions in `pool` and drains two rounds of one
/// bench-payload frame per session through `engine`.
fn pool_and_drain(engine: &mut BatchEngine, pool: &mut SessionPool, n: usize, seed: u64) {
    let payload = engine.add_payload(&bench_payload());
    let control = engine.add_control(&EMBED_BITS);
    let cfg = SessionConfig { snr_db: SNR_DB, rate: Some(DataRate::Mbps6), ..Default::default() };
    let ids: Vec<_> = (0..n).map(|i| pool.create(cfg.clone(), seed + i as u64)).collect();
    let mut out = Vec::with_capacity(n);
    for _ in 0..2 {
        for &id in &ids {
            engine.submit(id, payload, control);
        }
        engine.drain_into(pool, &mut out);
    }
}

/// Live heap bytes per pooled session after its frames drained. The
/// engine is warmed on a throwaway pool of the same size first, so its
/// worker scratch and job buffers are in place before the baseline and
/// only what the sessions themselves keep is counted.
fn run_session_footprint() -> f64 {
    let mut engine = BatchEngine::new(EngineConfig { threads: 1 });
    pool_and_drain(&mut engine, &mut SessionPool::new(), POOLED_SESSIONS, 1_000);
    let mut pool = SessionPool::with_capacity(POOLED_SESSIONS);
    let live0 = LIVE.load(Ordering::Relaxed);
    pool_and_drain(&mut engine, &mut pool, POOLED_SESSIONS, 2_000);
    let live1 = LIVE.load(Ordering::Relaxed);
    // The two payload/control registrations of the measured call stay
    // with the engine; they are a few KiB against the 64-session total.
    black_box(&pool);
    (live1 - live0) as f64 / POOLED_SESSIONS as f64
}

/// Prints per-stage allocation counts for one frame on a warmed-up
/// workspace — a debugging aid for chasing stray per-frame allocations.
fn profile_stages() {
    let payload = bench_payload();
    let mut link = Link::new(ChannelConfig::default(), SNR_DB, 42);
    let tx = TxPipeline::new();
    let rx = RxPipeline::new();
    let mut ws = PhyWorkspace::new();
    let mut stage = |name: &str, f: &mut dyn FnMut(&mut PhyWorkspace, &mut Link)| {
        let (a0, b0) = counters();
        f(&mut ws, &mut link);
        let (a1, b1) = counters();
        eprintln!("{name:>12}: {} allocs, {} bytes", a1 - a0, b1 - b0);
    };
    IN_TRACE.with(|c| c.set(c.get()));
    for round in 0..2 {
        TRACE.store(round == 1 && std::env::var_os("ALLOC_GATE_TRACE").is_some(), Ordering::Relaxed);
        eprintln!("--- frame {round} ---");
        stage("build", &mut |ws, _| {
            tx.build_and_render(&payload, DataRate::Mbps24, 0x5D, &mut ws.tx)
        });
        stage("channel", &mut |ws, link| {
            link.transmit_into(&ws.tx.samples, &mut ws.rx.samples)
        });
        stage("front_end", &mut |ws, _| {
            let cos_phy::RxWorkspace { samples, fe, .. } = &mut ws.rx;
            rx.receiver().front_end_into(samples, fe).expect("clean");
        });
        stage("decode", &mut |ws, _| {
            let cos_phy::RxWorkspace { fe, scratch, out, .. } = &mut ws.rx;
            rx.receiver().decode_into(fe, None, scratch, out);
        });
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    if std::env::args().any(|a| a == "--profile") {
        profile_stages();
        return;
    }

    let owned = run_owned();
    let workspace = run_workspace();
    let stream_owned = run_stream_owned();
    let stream_workspace = run_stream_workspace();
    let resilient_report = run_resilient_report();
    let resilient_summary = run_resilient_summary();
    let embed_owned = run_embed_owned();
    let embed_workspace = run_embed_workspace();
    let batch_per_frame = run_batch_decode_per_frame();
    let batch_lockstep = run_batch_decode_lockstep();
    let channel_per_frame = run_channel_per_frame();
    let channel_lockstep = run_channel_lockstep();
    let session_bytes = run_session_footprint();

    assert_eq!(
        owned.crc_ok, workspace.crc_ok,
        "owned and workspace paths decoded different frame counts"
    );
    assert_eq!(
        stream_owned.crc_ok, stream_workspace.crc_ok,
        "owned and workspace streaming paths decoded different frame counts"
    );
    assert_eq!(
        resilient_report.crc_ok, resilient_summary.crc_ok,
        "resilient report and summary paths decoded different frame counts"
    );
    assert_eq!(
        embed_owned.crc_ok, embed_workspace.crc_ok,
        "owned and workspace tx+embed paths built different frame counts"
    );
    assert_eq!(
        batch_per_frame.crc_ok, batch_lockstep.crc_ok,
        "per-frame and lockstep batched decodes disagree on CRC outcomes"
    );
    assert_eq!(
        channel_per_frame.crc_ok, channel_lockstep.crc_ok,
        "per-frame and lockstep channel paths disagree on impaired outputs"
    );

    // With a fully allocation-free workspace path the ratio is reported
    // against a 1-alloc floor, i.e. "at least N× fewer".
    let alloc_ratio = owned.allocs_per_frame / workspace.allocs_per_frame.max(1.0);
    let speedup = workspace.frames_per_sec / owned.frames_per_sec;
    let stream_ratio = stream_owned.allocs_per_frame / stream_workspace.allocs_per_frame.max(1.0);
    let embed_ratio = embed_owned.allocs_per_frame / embed_workspace.allocs_per_frame.max(1.0);

    let section = |m: &Measurement| {
        format!(
            "{{\n    \"allocs_per_frame\": {:.2},\n    \"bytes_per_frame\": {:.0},\n    \"frames_per_sec\": {:.2}\n  }}",
            m.allocs_per_frame, m.bytes_per_frame, m.frames_per_sec,
        )
    };
    let batch_speedup = batch_lockstep.frames_per_sec / batch_per_frame.frames_per_sec;
    let channel_speedup = channel_lockstep.frames_per_sec / channel_per_frame.frames_per_sec;
    let json = format!(
        "{{\n  \"bench\": \"alloc_gate\",\n  \"frames\": {MEASURED_FRAMES},\n  \"payload_bytes\": 1020,\n  \"rate\": \"Mbps24\",\n  \"snr_db\": {SNR_DB},\n  \"owned\": {},\n  \"workspace\": {},\n  \"stream_owned\": {},\n  \"stream_workspace\": {},\n  \"resilient_report\": {},\n  \"resilient_summary\": {},\n  \"embed_owned\": {},\n  \"embed_workspace\": {},\n  \"batch_decode_per_frame\": {},\n  \"batch_decode_lockstep\": {},\n  \"channel_per_frame\": {},\n  \"channel_lockstep\": {},\n  \"alloc_reduction\": {:.1},\n  \"rx_chain_speedup\": {:.3},\n  \"stream_alloc_reduction\": {:.1},\n  \"embed_alloc_reduction\": {:.1},\n  \"batch_decode_speedup\": {:.3},\n  \"channel_batch_speedup\": {:.3},\n  \"session_retained_bytes\": {:.0},\n  \"crc_ok_frames\": {}\n}}\n",
        section(&owned),
        section(&workspace),
        section(&stream_owned),
        section(&stream_workspace),
        section(&resilient_report),
        section(&resilient_summary),
        section(&embed_owned),
        section(&embed_workspace),
        section(&batch_per_frame),
        section(&batch_lockstep),
        section(&channel_per_frame),
        section(&channel_lockstep),
        alloc_ratio,
        speedup,
        stream_ratio,
        embed_ratio,
        batch_speedup,
        channel_speedup,
        session_bytes,
        owned.crc_ok,
    );
    std::fs::write("BENCH_pr4.json", &json).expect("write BENCH_pr4.json");
    print!("{json}");

    if check {
        let mut failures = Vec::new();
        if alloc_ratio < 10.0 && speedup < 1.5 {
            failures.push(format!(
                "alloc reduction {alloc_ratio:.1}x (< 10x) and rx speedup {speedup:.3}x (< 1.5x)"
            ));
        }
        if stream_workspace.allocs_per_frame > 0.0 {
            failures.push(format!(
                "streaming workspace rx allocates {:.2}/frame (want 0)",
                stream_workspace.allocs_per_frame
            ));
        }
        if embed_workspace.allocs_per_frame > 0.0 {
            failures.push(format!(
                "tx+embed workspace path allocates {:.2}/frame (want 0)",
                embed_workspace.allocs_per_frame
            ));
        }
        if batch_lockstep.allocs_per_frame > 0.0 {
            failures.push(format!(
                "batched lockstep decode allocates {:.2}/batch (want 0)",
                batch_lockstep.allocs_per_frame
            ));
        }
        if channel_lockstep.allocs_per_frame > 0.0 {
            failures.push(format!(
                "lockstep channel impair path allocates {:.2}/batch (want 0)",
                channel_lockstep.allocs_per_frame
            ));
        }
        if session_bytes > SESSION_HEAP_LIMIT {
            failures.push(format!(
                "a warmed pooled session keeps {session_bytes:.0} heap bytes (limit {SESSION_HEAP_LIMIT:.0})"
            ));
        }
        if resilient_summary.allocs_per_frame >= resilient_report.allocs_per_frame {
            failures.push(format!(
                "resilient summary path allocates {:.2}/frame, not below the report path's {:.2}",
                resilient_summary.allocs_per_frame, resilient_report.allocs_per_frame
            ));
        }
        if !failures.is_empty() {
            eprintln!("alloc gate FAILED: {}", failures.join("; "));
            std::process::exit(1);
        }
        eprintln!(
            "alloc gate passed: {alloc_ratio:.1}x fewer allocs, {speedup:.3}x rx speedup, \
             streaming rx 0 allocs/frame, tx+embed 0 allocs/frame ({embed_ratio:.1}x fewer), \
             batched decode 0 allocs/batch ({batch_speedup:.3}x vs per-frame), \
             channel batch 0 allocs/batch ({channel_speedup:.3}x vs per-frame), \
             resilient summary {:.2} vs report {:.2} allocs/frame, \
             {session_bytes:.0} heap bytes per pooled session",
            resilient_summary.allocs_per_frame, resilient_report.allocs_per_frame
        );
    }
}
