//! An end-to-end CoS link: data packets with embedded free control
//! messages over an indoor fading channel, with EVM feedback, subcarrier
//! selection and rate adaptation in the loop — the whole Fig. 8
//! architecture in one object.
//!
//! Two send paths share one transmit/receive core:
//!
//! * [`CosSession::send_packet`] — the paper's loop verbatim: embed the
//!   given control bits, trust every feedback report,
//! * [`CosSession::send_packet_resilient`] — the same loop wrapped in the
//!   [`crate::resilience`] layer: control messages come from an ARQ
//!   queue, feedback passes through the link's fault engine (loss,
//!   staleness, corruption), the detector bias recalibrates on
//!   false-alarm spikes, and a degraded-mode state machine drops to plain
//!   data transmission when the control channel stops working.
//! * [`CosSession::send_packet_adaptive`] — the closed loop of
//!   [`crate::adaptation`]: the rate staircase picks the rate from the
//!   EWMA of measured SNR and the silence-budget probe search sizes the
//!   control payload, with ARQ-confirmed probes (paper §II-B, Fig. 2).

use crate::adaptation::{
    AdaptationConfig, AdaptationEvents, LinkAdaptationController, ProbeEvent, ProbeState,
    StaircaseEvent,
};
use crate::control_rate::{ControlRateAdapter, ControlRateTable};
use crate::energy_detector::{Detection, DetectionAccuracy, EnergyDetector};
use crate::interval::IntervalCodec;
use crate::power_controller::{EmbedError, PowerController};
use crate::resilience::{
    corrupt_selection, ArqHistograms, ArqStats, ControlArq, DegradedModeController, LinkMode,
    ModeTransition, PacketObservation, PhyErrorTally, ResilienceConfig, ThresholdRecalibrator,
};
use crate::subcarrier_select::{select_control_subcarriers_into, SelectionPolicy};
use crate::validation::{sanitize_selection, validate_silences_into};
use cos_channel::{BatchFrame, ChannelConfig, FaultEngine, FeedbackFate, Link};
use cos_dsp::fnv1a;
use cos_fec::LaneFrame;
use cos_phy::error::PhyError;
use cos_phy::evm::{per_subcarrier_evm, reconstruct_points_into};
use cos_phy::frame::{run_staged_viterbi, staged_lane_frame, PreparedDataField};
use cos_phy::rates::DataRate;
use cos_phy::rx::Receiver;
use cos_phy::subcarriers::NUM_DATA;
use cos_phy::tx::Transmitter;
use cos_phy::{PhyWorkspace, TxWorkspace};
use std::cell::RefCell;
use std::collections::VecDeque;

/// The frame-sized scratch of one frame in flight: the tx frame and
/// waveform, the rx landing zone and decoder workspace, the EVM
/// reference reconstruction and the energy-detection result. Sessions
/// own none of it — a session keeps only protocol state and small
/// per-packet vectors, so its footprint does not grow with the frame.
/// The engine keeps one `FrameScratch` per lockstep lane per worker;
/// the standalone `send_packet*` methods borrow a thread-local one.
///
/// Every stage fully overwrites what it writes before reading it back,
/// so scratch left dirty by any earlier frame — of the same session or
/// of another one, at another rate and length — yields the same bits as
/// fresh scratch. A frame must keep the same scratch from its tx stage
/// through its finish stage.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrameScratch {
    /// Zero-copy PHY scratch: the tx frame and waveform, the rx landing
    /// zone, and the decoder workspace.
    ws: PhyWorkspace,
    /// Reference-frame reconstruction scratch for the EVM feedback loop
    /// (kept separate from `ws.tx`, which still holds the sent frame).
    ref_tx: TxWorkspace,
    /// Energy-detection scratch.
    det: Detection,
}

impl FrameScratch {
    /// The Viterbi stage, per-frame form: decodes the staged trellis (if
    /// any) in place.
    pub(crate) fn run_viterbi(&mut self, prep: &PlainPrep) {
        if let Some(p) = prep.staged_ok() {
            run_staged_viterbi(p, &mut self.ws.rx.scratch.fec);
        }
    }

    /// The Viterbi stage in lockstep form: borrows the staged trellis as
    /// one lane frame for [`cos_fec::ViterbiDecoder::decode_lockstep`].
    /// Running the lane frame leaves exactly the state
    /// [`run_viterbi`](Self::run_viterbi) would.
    pub(crate) fn lane_frame(&mut self, prep: PreparedDataField) -> LaneFrame<'_> {
        staged_lane_frame(prep, &mut self.ws.rx.scratch.fec)
    }
}

thread_local! {
    /// The frame scratch standalone sends on this thread borrow.
    static FRAME: RefCell<FrameScratch> = RefCell::new(FrameScratch::default());
}

/// Runs `f` on this thread's standalone-send [`FrameScratch`].
fn with_frame<R>(f: impl FnOnce(&mut FrameScratch) -> R) -> R {
    FRAME.with(|cell| f(&mut cell.borrow_mut()))
}

/// What [`CosSession::transceive_prepare_rx`] staged: either the front end
/// failed outright, or the DATA field staged with the inner result.
#[derive(Debug, Clone, Copy)]
enum PlainStage {
    /// The front end failed; there is nothing to decode.
    FrontEndFailed(PhyError),
    /// The front end ran; the DATA field staged with this result.
    Staged(Result<PreparedDataField, PhyError>),
}

/// `Copy` token carrying everything `transceive_finish` needs from
/// `transceive_prepare_rx` — the seam the engine's lockstep Viterbi slots
/// into: prepare several sessions' frames, run their trellises `LANES`
/// per instruction, then finish each.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlainPrep {
    silences_sent: usize,
    rate: DataRate,
    embed_control: bool,
    stage: PlainStage,
}

impl PlainPrep {
    /// The staged Viterbi run, when the frame staged cleanly.
    pub(crate) fn staged_ok(&self) -> Option<PreparedDataField> {
        match self.stage {
            PlainStage::Staged(Ok(p)) => Some(p),
            _ => None,
        }
    }
}

/// `Copy` token carrying the tx-side facts of one built frame, from
/// [`CosSession::transceive_prepare_tx`] to
/// [`CosSession::transceive_prepare_rx`] — the air seam the engine's
/// batched channel ([`Link::transmit_batch_into`]) slots between: build
/// and render several sessions' frames, impair all their waveforms in
/// lockstep, then run each receive chain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxPrep {
    silences_sent: usize,
    rate: DataRate,
    embed_control: bool,
}

/// `Copy` token of one resilient-path frame between
/// [`CosSession::resilient_prepare_tx`] and
/// [`CosSession::resilient_finish`]. The control bits themselves stay in
/// the session's `ResilienceState::msg`, where the finish half reads
/// them back.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResilientTx {
    /// The inner tx token, consumed by the receive-prepare stage.
    pub(crate) tx: TxPrep,
    mode: LinkMode,
    attempted: bool,
    from_queue: bool,
}

/// `Copy` token of one adaptive-path frame between
/// [`CosSession::adaptive_prepare_tx`] and
/// [`CosSession::adaptive_finish`]; the composed probe message stays in
/// the session's `AdaptationState::msg`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdaptiveTx {
    /// The inner tx token, consumed by the receive-prepare stage.
    pub(crate) tx: TxPrep,
    target: usize,
    from_queue: bool,
}

/// Configuration of a CoS session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Channel model.
    pub channel: ChannelConfig,
    /// Average link SNR in dB.
    pub snr_db: f64,
    /// Fixed data rate; `None` enables SNR-based rate adaptation.
    pub rate: Option<DataRate>,
    /// Energy-detection adaptive-threshold bias (dB above the geometric
    /// midpoint between noise floor and subcarrier signal energy).
    pub detector_bias_db: f64,
    /// Control bits per interval (paper: 4).
    pub bits_per_interval: usize,
    /// Minimum number of control subcarriers to keep selected.
    pub min_control_subcarriers: usize,
    /// Wall-clock gap between packets in seconds (drives channel
    /// evolution).
    pub packet_interval: f64,
    /// Resilience thresholds for [`CosSession::send_packet_resilient`];
    /// `None` uses [`ResilienceConfig::default`] when that path is first
    /// taken and leaves [`CosSession::send_packet`] untouched.
    pub resilience: Option<ResilienceConfig>,
    /// Link-adaptation knobs for [`CosSession::send_packet_adaptive`];
    /// `None` uses [`AdaptationConfig::default`] when that path is first
    /// taken and leaves the other send paths untouched.
    pub adaptation: Option<AdaptationConfig>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            channel: ChannelConfig::default(),
            snr_db: 18.0,
            rate: None,
            detector_bias_db: 1.0,
            bits_per_interval: 4,
            min_control_subcarriers: 6,
            packet_interval: 1e-3,
            resilience: None,
            adaptation: None,
        }
    }
}

/// Per-packet outcome.
#[derive(Debug, Clone)]
pub struct PacketReport {
    /// Did the data packet pass its CRC?
    pub data_ok: bool,
    /// The control bits recovered from detected silences (`None` when the
    /// silence pattern did not decode).
    pub control_bits: Option<Vec<u8>>,
    /// Did the control message arrive exactly as sent?
    pub control_ok: bool,
    /// Silence symbols inserted.
    pub silences_sent: usize,
    /// Detection accuracy against the transmitted silence pattern.
    pub detection: DetectionAccuracy,
    /// The receiver's measured SNR for this packet (dB).
    pub measured_snr_db: f64,
    /// Rate the packet was sent at.
    pub rate: DataRate,
    /// Control subcarriers used for this packet.
    pub selected: Vec<usize>,
}

/// Per-packet outcome of the resilient path, wrapping [`PacketReport`].
#[derive(Debug, Clone)]
pub struct ResilientReport {
    /// The underlying packet outcome.
    pub packet: PacketReport,
    /// Mode this packet was sent in.
    pub mode: LinkMode,
    /// Mode the next packet will be sent in.
    pub mode_after: LinkMode,
    /// Whether control silences were embedded (Cos/Probing modes).
    pub control_attempted: bool,
    /// Whether the sender received confirmation of the control message.
    pub control_acked: bool,
    /// Whether a feedback report reached the sender this packet.
    pub feedback_delivered: bool,
    /// Kind label of the receive-chain error, if one occurred.
    pub phy_error: Option<&'static str>,
}

/// What the receiver computed for one packet, before the sender-side
/// feedback loop is applied. Plain `Copy` metadata: the variable-length
/// results (decoded control bits, feedback selection) live in the
/// session's [`SessionScratch`], gated by `control_present` /
/// `feedback`.
#[derive(Debug, Clone, Copy)]
struct Transceived {
    data_ok: bool,
    front_end_ok: bool,
    /// The detected silence pattern decoded to a valid control message,
    /// now in `SessionScratch::control`.
    control_present: bool,
    control_ok: bool,
    silences_sent: usize,
    accuracy: DetectionAccuracy,
    measured: f64,
    rate: DataRate,
    phy_error: Option<PhyError>,
    feedback: Option<FeedbackMeta>,
}

/// The fixed-size part of the feedback report the receiver would send
/// (exists only on CRC pass); the selection itself is in
/// `SessionScratch::fb_selection`.
#[derive(Debug, Clone, Copy)]
struct FeedbackMeta {
    measured_snr_db: f64,
    /// Energy detections rejected by coherent validation — false alarms.
    false_alarms: usize,
    /// Non-silence control positions in the frame.
    normal_positions: usize,
}

/// Per-packet variable-length results, owned by the session so the hot
/// path never allocates: every field is fully overwritten (or explicitly
/// gated off by a `Transceived` flag) each packet.
#[derive(Debug, Clone, Default)]
struct SessionScratch {
    /// Silence positions actually embedded (ground truth).
    truth: Vec<usize>,
    /// Coherently validated silence positions (CRC-pass refinement).
    refined: Vec<usize>,
    /// Decoded control bits (valid when `Transceived::control_present`).
    control: Vec<u8>,
    /// The receiver's next-packet subcarrier selection (valid when
    /// `Transceived::feedback` is `Some`).
    fb_selection: Vec<usize>,
}

/// Monotonic per-session counters, snapshot via
/// [`CosSession::metrics`] — the netpoke-style observability surface a
/// fleet operator (or the mesh layer) scrapes per station. All counters
/// are maintained identically across the plain, resilient and adaptive
/// send paths and reset by [`CosSession::reinit`], so a recycled
/// session reports like a fresh one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionMetrics {
    /// Frames transmitted (every transceive, all send paths).
    pub frames_tx: u64,
    /// Frames whose data CRC passed at the receiver.
    pub frames_rx_ok: u64,
    /// Frames that embedded control silences (CoS attempts).
    pub control_embedded: u64,
    /// Frames whose control message was recovered exactly as sent.
    pub control_ok: u64,
    /// Packets whose EVM feedback report reached the sender (fresh on
    /// the adaptive path; fresh, stale or corrupt on the resilient one —
    /// mirroring each path's own `feedback_delivered` flag).
    pub feedback_delivered: u64,
    /// ARQ transmission attempts beyond each message's first, summed
    /// over the resilient and adaptive queues (`attempts` minus offered
    /// messages, saturating — messages still waiting for their first
    /// attempt are not counted against it).
    pub arq_retries: u64,
    /// Adaptation state-machine transitions: every non-`Hold` staircase
    /// or probe event counts one.
    pub adaptation_events: u64,
    /// The silence budget currently in force on the adaptive path
    /// (the controller's target; 0 when the adaptive path never ran).
    pub silence_budget: usize,
}

/// Fixed-size (`Copy`) outcome of one packet, for batch processing where
/// per-packet heap results would defeat the zero-allocation engine. The
/// variable-length fields of [`PacketReport`] are represented by FNV-1a
/// digests: equal summaries ⇔ byte-identical reports (up to hash
/// collisions, which determinism tests treat as impossible in practice).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketSummary {
    /// Did the data packet pass its CRC?
    pub data_ok: bool,
    /// Did the silence pattern decode to a control message at all?
    pub control_present: bool,
    /// Did the control message arrive exactly as sent?
    pub control_ok: bool,
    /// Silence symbols inserted.
    pub silences_sent: usize,
    /// Detection accuracy against the transmitted silence pattern.
    pub detection: DetectionAccuracy,
    /// The receiver's measured SNR for this packet (dB).
    pub measured_snr_db: f64,
    /// Rate the packet was sent at.
    pub rate: DataRate,
    /// Number of control subcarriers in force after the feedback loop.
    pub selected_len: usize,
    /// FNV-1a digest of the post-feedback selection indices.
    pub selected_hash: u64,
    /// FNV-1a digest of the decoded control bits (0 when absent).
    pub control_hash: u64,
}

/// Fixed-size (`Copy`) outcome of one resilient-path packet, mirroring
/// [`ResilientReport`] the way [`PacketSummary`] mirrors [`PacketReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilientSummary {
    /// The underlying packet outcome.
    pub packet: PacketSummary,
    /// Mode this packet was sent in.
    pub mode: LinkMode,
    /// Mode the next packet will be sent in.
    pub mode_after: LinkMode,
    /// Whether control silences were embedded (Cos/Probing modes).
    pub control_attempted: bool,
    /// Whether the sender received confirmation of the control message.
    pub control_acked: bool,
    /// Whether a feedback report reached the sender this packet.
    pub feedback_delivered: bool,
    /// Kind label of the receive-chain error, if one occurred.
    pub phy_error: Option<&'static str>,
}

/// The resilient path's outcome before report/summary packaging.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResilientCore {
    t: Transceived,
    mode: LinkMode,
    mode_after: LinkMode,
    attempted: bool,
    acked: bool,
    delivered: bool,
}

/// Per-packet outcome of the adaptive path, wrapping [`PacketReport`].
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// The underlying packet outcome.
    pub packet: PacketReport,
    /// The EWMA SNR estimate after this packet (`None` before any
    /// feedback arrived).
    pub ewma_snr_db: Option<f64>,
    /// The silence budget the controller targeted for this packet.
    pub budget: usize,
    /// The rate the next packet will use.
    pub rate_after: DataRate,
    /// The silence budget the next packet will target.
    pub budget_after: usize,
    /// The probe search's state after this packet.
    pub search_state: ProbeState,
    /// The staircase transition this packet triggered.
    pub staircase_event: StaircaseEvent,
    /// The probe-search transition this packet triggered.
    pub probe_event: ProbeEvent,
    /// Whether the sender received confirmation of the control message.
    pub control_acked: bool,
    /// Whether a feedback report reached the sender this packet.
    pub feedback_delivered: bool,
}

/// Fixed-size (`Copy`) outcome of one adaptive-path packet, mirroring
/// [`AdaptiveReport`] the way [`PacketSummary`] mirrors [`PacketReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSummary {
    /// The underlying packet outcome.
    pub packet: PacketSummary,
    /// The EWMA SNR estimate after this packet (`f64::NEG_INFINITY`
    /// before any feedback arrived, so the field stays `Copy`).
    pub ewma_snr_db: f64,
    /// The silence budget the controller targeted for this packet.
    pub budget: usize,
    /// The rate the next packet will use.
    pub rate_after: DataRate,
    /// The silence budget the next packet will target.
    pub budget_after: usize,
    /// The probe search's state after this packet.
    pub search_state: ProbeState,
    /// The staircase transition this packet triggered.
    pub staircase_event: StaircaseEvent,
    /// The probe-search transition this packet triggered.
    pub probe_event: ProbeEvent,
    /// Whether the sender received confirmation of the control message.
    pub control_acked: bool,
    /// Whether a feedback report reached the sender this packet.
    pub feedback_delivered: bool,
}

/// The adaptive path's outcome before report/summary packaging.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdaptiveCore {
    t: Transceived,
    budget: usize,
    rate_after: DataRate,
    budget_after: usize,
    search_state: ProbeState,
    events: AdaptationEvents,
    acked: bool,
    delivered: bool,
    /// EWMA after `observe`, `NEG_INFINITY` when still unset.
    ewma_snr_db: f64,
}

/// Live state of the adaptation layer: the controller plus its own ARQ
/// queue (probe confirmations ride the same feedback reports as the
/// resilient path's ACKs) and the composed-message scratch buffer.
#[derive(Debug, Clone)]
struct AdaptationState {
    ctrl: LinkAdaptationController,
    arq: ControlArq,
    /// The control message actually embedded: the ARQ head (if any)
    /// padded with deterministic filler bits to the probe budget.
    msg: Vec<u8>,
}

impl AdaptationState {
    fn new(config: &SessionConfig) -> Self {
        let cfg = config.adaptation.clone().unwrap_or_default();
        let arq_cfg = config.resilience.clone().unwrap_or_default();
        AdaptationState {
            ctrl: LinkAdaptationController::new(cfg),
            arq: ControlArq::new(&arq_cfg),
            msg: Vec::new(),
        }
    }
}

/// A stored feedback report (for serving stale deliveries).
#[derive(Debug, Clone)]
struct HistoryEntry {
    selection: Vec<usize>,
    measured_snr_db: f64,
}

/// Live state of the resilience layer.
#[derive(Debug, Clone)]
struct ResilienceState {
    ctrl: DegradedModeController,
    arq: ControlArq,
    recal: ThresholdRecalibrator,
    tally: PhyErrorTally,
    /// Recent receiver reports, newest first — consulted for
    /// [`FeedbackFate::Stale`] deliveries.
    history: VecDeque<HistoryEntry>,
    /// The control message actually embedded this packet (the ARQ head,
    /// or empty for the channel-probe marker) — kept in the state so the
    /// finish half of the split path can verify it against the decode.
    msg: Vec<u8>,
}

/// How many past feedback reports are kept for stale delivery.
const FEEDBACK_HISTORY: usize = 16;

/// An end-to-end CoS session between one sender and one receiver.
#[derive(Debug, Clone)]
pub struct CosSession {
    config: SessionConfig,
    link: Link,
    phy_tx: Transmitter,
    phy_rx: Receiver,
    controller: PowerController,
    detector: EnergyDetector,
    adapter: ControlRateAdapter,
    /// Current control subcarriers (receiver feedback; bootstrap default).
    selected: Vec<usize>,
    /// Rate for the next packet.
    rate: DataRate,
    seq: u64,
    resilience: Option<ResilienceState>,
    adaptation: Option<AdaptationState>,
    /// Adaptive-threshold scratch (one entry per selected subcarrier).
    thresholds: Vec<f64>,
    /// The per-packet (possibly expanded) working copy of `selected`.
    sel_scratch: Vec<usize>,
    /// Per-packet variable-length results (truth/refined positions,
    /// decoded control, feedback selection).
    xs: SessionScratch,
    /// Monotonic observability counters (see [`SessionMetrics`]).
    m: SessionMetrics,
}

impl CosSession {
    /// Creates a session over a fresh channel realisation.
    pub fn new(config: SessionConfig, seed: u64) -> Self {
        let codec = IntervalCodec::new(config.bits_per_interval);
        let link = Link::new(config.channel, config.snr_db, seed);
        // Bootstrap selection before any EVM feedback exists: a centred
        // contiguous block (the Fig. 10(a) layout).
        let selected = (9..9 + config.min_control_subcarriers.max(1)).collect();
        let rate = config.rate.unwrap_or(DataRate::Mbps12);
        let resilience = config.resilience.clone().map(|cfg| ResilienceState {
            arq: ControlArq::new(&cfg),
            recal: ThresholdRecalibrator::new(config.detector_bias_db, &cfg),
            ctrl: DegradedModeController::new(cfg),
            tally: PhyErrorTally::new(),
            history: VecDeque::new(),
            msg: Vec::new(),
        });
        let adaptation = config.adaptation.is_some().then(|| AdaptationState::new(&config));
        CosSession {
            detector: EnergyDetector::new(config.detector_bias_db),
            controller: PowerController::new(codec),
            adapter: ControlRateAdapter::new(ControlRateTable::default()),
            phy_tx: Transmitter::new(),
            phy_rx: Receiver::new(),
            link,
            selected,
            rate,
            seq: 0,
            resilience,
            adaptation,
            thresholds: Vec::new(),
            sel_scratch: Vec::new(),
            xs: SessionScratch::default(),
            m: SessionMetrics::default(),
            config,
        }
    }

    /// Resets the session to the state [`CosSession::new`]`(config, seed)`
    /// would produce, while keeping its small per-packet buffers'
    /// capacity — the pool-recycling entry point. A recycled session is
    /// behaviourally indistinguishable from a fresh one because every
    /// `*_into` stage fully overwrites its outputs (see
    /// `docs/ARCHITECTURE.md`).
    pub fn reinit(&mut self, config: SessionConfig, seed: u64) {
        let codec = IntervalCodec::new(config.bits_per_interval);
        self.link = Link::new(config.channel, config.snr_db, seed);
        self.selected.clear();
        self.selected.extend(9..9 + config.min_control_subcarriers.max(1));
        self.rate = config.rate.unwrap_or(DataRate::Mbps12);
        self.resilience = config.resilience.clone().map(|cfg| ResilienceState {
            arq: ControlArq::new(&cfg),
            recal: ThresholdRecalibrator::new(config.detector_bias_db, &cfg),
            ctrl: DegradedModeController::new(cfg),
            tally: PhyErrorTally::new(),
            history: VecDeque::new(),
            msg: Vec::new(),
        });
        self.detector = EnergyDetector::new(config.detector_bias_db);
        self.controller = PowerController::new(codec);
        self.adapter = ControlRateAdapter::new(ControlRateTable::default());
        self.seq = 0;
        self.adaptation = config.adaptation.is_some().then(|| AdaptationState::new(&config));
        self.m = SessionMetrics::default();
        self.config = config;
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The control subcarriers currently in force.
    pub fn selected_subcarriers(&self) -> &[usize] {
        &self.selected
    }

    /// The rate the next packet will use.
    pub fn current_rate(&self) -> DataRate {
        self.rate
    }

    /// The silence budget (per packet) the rate adapter currently allows.
    pub fn silence_budget(&self, psdu_bytes: usize) -> usize {
        self.adapter.silence_budget(self.rate, psdu_bytes)
    }

    /// The underlying link (e.g. for sounding the true channel).
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Attaches a fault-injection engine to the link.
    pub fn set_faults(&mut self, engine: FaultEngine) {
        self.link.set_faults(Some(engine));
    }

    /// Detaches the link's fault-injection engine, if any.
    pub fn clear_faults(&mut self) {
        self.link.set_faults(None);
    }

    /// The detection bias currently in force (recalibration may have
    /// moved it from the configured value).
    pub fn detector_bias_db(&self) -> f64 {
        self.detector.bias_db()
    }

    /// The link mode the next packet will be sent in ([`LinkMode::Cos`]
    /// when the resilient path has never run).
    pub fn mode(&self) -> LinkMode {
        self.resilience.as_ref().map_or(LinkMode::Cos, |s| s.ctrl.mode())
    }

    /// Every degraded-mode transition recorded so far.
    pub fn transitions(&self) -> &[ModeTransition] {
        self.resilience.as_ref().map_or(&[], |s| s.ctrl.transitions())
    }

    /// Control-message ARQ statistics.
    pub fn arq_stats(&self) -> ArqStats {
        self.resilience.as_ref().map_or_else(ArqStats::default, |s| s.arq.stats())
    }

    /// Control messages still queued for delivery.
    pub fn arq_backlog(&self) -> usize {
        self.resilience.as_ref().map_or(0, |s| s.arq.backlog())
    }

    /// Per-message attempt/latency histograms of the resilient-path ARQ
    /// ([`ArqHistograms::default`] when that path has never run).
    pub fn arq_histograms(&self) -> ArqHistograms {
        self.resilience.as_ref().map_or_else(ArqHistograms::default, |s| *s.arq.histograms())
    }

    /// Receive-chain failures tallied by kind (resilient path only).
    pub fn phy_errors(&self) -> Option<&PhyErrorTally> {
        self.resilience.as_ref().map(|s| &s.tally)
    }

    /// Queues a control message for reliable (ARQ) delivery over the
    /// resilient path.
    pub fn queue_control(&mut self, bits: Vec<u8>) {
        self.ensure_resilience();
        let now = self.seq;
        self.resilience
            .as_mut()
            .expect("just ensured")
            .arq
            .enqueue(bits, now);
    }

    /// Queues a control message for reliable (ARQ) delivery over the
    /// adaptive path. Like [`send_packet`](Self::send_packet)'s control
    /// bits, the length must be a multiple of the codec's `k` (default
    /// 4) so the padded probe message stays decodable.
    pub fn queue_adaptive_control(&mut self, bits: Vec<u8>) {
        self.ensure_adaptation();
        let now = self.seq;
        self.adaptation
            .as_mut()
            .expect("just ensured")
            .arq
            .enqueue(bits, now);
    }

    /// Adaptive-path control-message ARQ statistics.
    pub fn adaptive_arq_stats(&self) -> ArqStats {
        self.adaptation.as_ref().map_or_else(ArqStats::default, |s| s.arq.stats())
    }

    /// Control messages still queued on the adaptive path.
    pub fn adaptive_backlog(&self) -> usize {
        self.adaptation.as_ref().map_or(0, |s| s.arq.backlog())
    }

    /// Per-message attempt/latency histograms of the adaptive-path ARQ.
    pub fn adaptive_arq_histograms(&self) -> ArqHistograms {
        self.adaptation.as_ref().map_or_else(ArqHistograms::default, |s| *s.arq.histograms())
    }

    /// The link-adaptation controller, once the adaptive path has run
    /// (or the session was configured with `adaptation: Some(_)`).
    pub fn adaptation_controller(&self) -> Option<&LinkAdaptationController> {
        self.adaptation.as_ref().map(|s| &s.ctrl)
    }

    /// Mutable access to the link-adaptation controller, creating the
    /// adaptation state on first use — the hook coordination layers
    /// (e.g. `cos_core::mesh`) use to impose
    /// [`rate caps`](LinkAdaptationController::set_rate_cap) and
    /// [`budget grants`](LinkAdaptationController::set_budget_ceiling)
    /// on a running station.
    pub fn adaptation_controller_mut(&mut self) -> &mut LinkAdaptationController {
        self.ensure_adaptation();
        &mut self.adaptation.as_mut().expect("just ensured").ctrl
    }

    /// A snapshot of the session's observability counters. The two
    /// derived fields are computed at snapshot time: `arq_retries` from
    /// the resilient + adaptive [`ArqStats`], `silence_budget` from the
    /// adaptation controller's current target.
    pub fn metrics(&self) -> SessionMetrics {
        let mut m = self.m;
        let res = self.arq_stats();
        let adp = self.adaptive_arq_stats();
        m.arq_retries = res.attempts.saturating_sub(res.enqueued)
            + adp.attempts.saturating_sub(adp.enqueued);
        m.silence_budget = self.adaptation.as_ref().map_or(0, |s| s.ctrl.target_budget());
        m
    }

    /// Retargets the link's average SNR mid-session — the mobility /
    /// coherence-time drift hook used by `fig07_adaptation`. The channel
    /// realisation and all RNG streams are untouched, so a drift
    /// trajectory is bit-exactly reproducible (see
    /// [`cos_channel::Link::set_snr_db`]).
    pub fn set_snr_db(&mut self, snr_db: f64) {
        self.config.snr_db = snr_db;
        self.link.set_snr_db(snr_db);
    }

    fn ensure_adaptation(&mut self) {
        if self.adaptation.is_none() {
            self.adaptation = Some(AdaptationState::new(&self.config));
        }
    }

    fn ensure_resilience(&mut self) {
        if self.resilience.is_none() {
            let cfg = self.config.resilience.clone().unwrap_or_default();
            self.resilience = Some(ResilienceState {
                arq: ControlArq::new(&cfg),
                recal: ThresholdRecalibrator::new(self.config.detector_bias_db, &cfg),
                ctrl: DegradedModeController::new(cfg),
                tally: PhyErrorTally::new(),
                history: VecDeque::new(),
                msg: Vec::new(),
            });
        }
    }

    /// The transmit/receive core shared by both send paths: build, embed
    /// (optionally), propagate, detect, decode, validate, and compute the
    /// feedback report. Does **not** apply feedback to the sender state.
    ///
    /// Composed from the tx / air / rx / Viterbi / finish stages, the
    /// same functions the batch engine interleaves across sessions, so
    /// this monolithic form and the staged form are bit-identical by
    /// construction (one implementation of every stage).
    fn transceive(
        &mut self,
        fs: &mut FrameScratch,
        payload: &[u8],
        control_bits: &[u8],
        embed_control: bool,
    ) -> Transceived {
        let tok = self.transceive_prepare_tx(fs, payload, control_bits, embed_control);
        let prep = self.air_rx_viterbi(fs, tok);
        self.transceive_finish(fs, control_bits, prep)
    }

    /// The stages between a standalone send's tx stage and its finish:
    /// air, rx and the per-frame Viterbi.
    fn air_rx_viterbi(&mut self, fs: &mut FrameScratch, tok: TxPrep) -> PlainPrep {
        self.air(fs);
        let prep = self.transceive_prepare_rx(fs, tok);
        fs.run_viterbi(&prep);
        prep
    }

    /// The tx stage: build the frame, embed the control silences, and
    /// render the waveform into the scratch, ready for the air stage.
    pub(crate) fn transceive_prepare_tx(
        &mut self,
        fs: &mut FrameScratch,
        payload: &[u8],
        control_bits: &[u8],
        embed_control: bool,
    ) -> TxPrep {
        self.seq += 1;
        let scrambler_seed = (self.seq % 127 + 1) as u8;
        let rate = self.rate;
        self.phy_tx.build_frame_into(payload, rate, scrambler_seed, &mut fs.ws.tx);

        // Embed; if the message outgrows the current selection (short
        // frame or long message), expand the control-subcarrier set for
        // this packet with evenly spaced extras — best effort, exactly
        // what a sender with a stale feedback vector would do. The
        // working copy lives in session scratch so the session's own
        // `selected` stays the receiver's last report.
        self.sel_scratch.clear();
        self.sel_scratch.extend_from_slice(&self.selected);
        self.xs.truth.clear();
        if embed_control {
            loop {
                match self.controller.embed_into(
                    &mut fs.ws.tx.frame,
                    &self.sel_scratch,
                    control_bits,
                    &mut self.xs.truth,
                ) {
                    Ok(()) => break,
                    Err(EmbedError::NoControlSubcarriers) => {
                        panic!("session always keeps a non-empty selection")
                    }
                    Err(e @ EmbedError::MessageTooLong { .. }) => {
                        if self.sel_scratch.len() >= NUM_DATA {
                            panic!("{e}: message exceeds the frame's total control capacity");
                        }
                        let mut extra: Vec<usize> =
                            (0..NUM_DATA).filter(|sc| !self.sel_scratch.contains(sc)).collect();
                        // Spread the extras across the band.
                        extra.sort_by_key(|&sc| (sc * 7919) % NUM_DATA);
                        self.sel_scratch.extend(extra.into_iter().take(6));
                        self.sel_scratch.sort_unstable();
                    }
                }
            }
        }
        let silences_sent = self.xs.truth.len();
        fs.ws.tx.render();
        TxPrep { silences_sent, rate, embed_control }
    }

    /// The air stage: land the channel output of the rendered waveform
    /// straight in the receive workspace — the per-frame twin of the
    /// engine's batched [`Link::transmit_batch_into`] round.
    pub(crate) fn air(&mut self, fs: &mut FrameScratch) {
        let PhyWorkspace { tx, rx } = &mut fs.ws;
        self.link.transmit_into(&tx.samples, &mut rx.samples);
    }

    /// The rate the next frame will render at, predicted from the state
    /// the tx-prepare stage reads without advancing anything: the pinned
    /// config rate, the session's standing rate, or (for an adaptive job)
    /// the staircase's current rate. `None` only for an adaptive job on a
    /// session whose controller state hasn't been created yet — callers
    /// using this to pre-check lockstep compatibility should treat that
    /// as "unknown", never guess. The engine's bundle key and its
    /// batched-air pre-check both ride on this: the rendered waveform
    /// length is a function of (payload length, rate) alone, so equal
    /// predictions mean air-lockstep-compatible frames.
    pub(crate) fn planned_rate(&self, adaptive: bool) -> Option<DataRate> {
        if adaptive {
            match self.config.rate {
                Some(r) => Some(r),
                None => self.adaptation.as_ref().map(|s| s.ctrl.rate()),
            }
        } else {
            Some(self.rate)
        }
    }

    /// The link shape [`Link::transmit_batch_into`] requires lockstep
    /// frames to share: (tap count, lead-in).
    pub(crate) fn air_shape(&self) -> (usize, usize) {
        (self.link.channel().tap_count(), self.link.lead_in())
    }

    /// Splits out the borrows [`air`](Self::air) uses — the link, the
    /// rendered tx waveform and the rx landing buffer — so the engine can
    /// hand several sessions' frames to [`Link::transmit_batch_into`] as
    /// one lockstep batch. Only valid between
    /// [`transceive_prepare_tx`](Self::transceive_prepare_tx) and
    /// [`transceive_prepare_rx`](Self::transceive_prepare_rx).
    pub(crate) fn air_parts<'a>(&'a mut self, fs: &'a mut FrameScratch) -> BatchFrame<'a> {
        let PhyWorkspace { tx, rx } = &mut fs.ws;
        (&mut self.link, &tx.samples, &mut rx.samples)
    }

    /// The rx stage: front end, energy detection, and the demap/FEC
    /// staging of the erasure decode, all into the frame scratch. The
    /// Viterbi itself belongs to the next stage
    /// ([`FrameScratch::run_viterbi`] or a lockstep run over
    /// [`FrameScratch::lane_frame`]).
    pub(crate) fn transceive_prepare_rx(
        &mut self,
        fs: &mut FrameScratch,
        tok: TxPrep,
    ) -> PlainPrep {
        let TxPrep { silences_sent, rate, embed_control } = tok;
        let FrameScratch { ws, det, .. } = fs;
        let stage = match self.phy_rx.front_end_into(&ws.rx.samples, &mut ws.rx.fe) {
            Ok(()) => {
                if embed_control {
                    let (sel, thresholds) = (&self.sel_scratch, &mut self.thresholds);
                    self.detector.detect_into(&ws.rx.fe, sel, thresholds, det);
                }
                let erasures = embed_control.then_some(det.erasures.as_slice());
                PlainStage::Staged(self.phy_rx.decode_prepare_into(
                    &ws.rx.fe,
                    erasures,
                    &mut ws.rx.scratch,
                    &mut ws.rx.out,
                ))
            }
            Err(e) => PlainStage::FrontEndFailed(e),
        };
        PlainPrep { silences_sent, rate, embed_control, stage }
    }

    /// The back half of [`transceive`](Self::transceive): descramble/CRC
    /// finish, control-bit extraction, silence validation, EVM feedback,
    /// channel advance and metrics. Requires the Viterbi stage to have
    /// run when `prep` staged cleanly.
    fn transceive_finish(
        &mut self,
        fs: &mut FrameScratch,
        control_bits: &[u8],
        prep: PlainPrep,
    ) -> Transceived {
        let PlainPrep { silences_sent, rate, embed_control, stage } = prep;
        let result = match stage {
            PlainStage::Staged(staged) => {
                let CosSession { phy_rx, controller, config, sel_scratch, xs, .. } = &mut *self;
                let FrameScratch { ws, ref_tx, det } = fs;
                let codec = *controller.codec();
                let total = ws.rx.fe.raw_symbols.len() * sel_scratch.len();
                // Decoded control bits are bounded by one interval per
                // control slot; reserving that bound here keeps the two
                // `decode_into` calls below reallocation-free even on
                // frames with record silence counts.
                xs.control.reserve(total.saturating_sub(1) * codec.bits_per_interval());
                let mut accuracy = if embed_control {
                    DetectionAccuracy::evaluate_sorted(&det.positions, &xs.truth, total)
                } else {
                    DetectionAccuracy::default()
                };
                let erasures = embed_control.then_some(det.erasures.as_slice());
                phy_rx.decode_finish_into(&ws.rx.fe, staged, &mut ws.rx.scratch, &mut ws.rx.out);
                let mut control_present =
                    embed_control && det.control_bits_into(&codec, &mut xs.control);
                let measured = ws.rx.fe.measured_snr_db();

                // Feedback loop: EVM-based subcarrier selection for the
                // next packet, valid only when the CRC passed. The same
                // point reconstruction also refines the control message by
                // coherent silence validation (inner QAM points stop
                // masquerading as silences).
                let next_rate = config.rate.unwrap_or_else(|| DataRate::select(measured));
                let mut feedback = None;
                if let (true, Some(seed)) = (ws.rx.out.crc_ok, ws.rx.out.scrambler_seed) {
                    let reference =
                        reconstruct_points_into(&ws.rx.out.payload, rate, seed, ref_tx);
                    let mut false_alarms = 0;
                    let mut normal_positions = 0;
                    if embed_control {
                        validate_silences_into(&ws.rx.fe, sel_scratch, reference, &mut xs.refined);
                        accuracy = DetectionAccuracy::evaluate_sorted(&xs.refined, &xs.truth, total);
                        control_present = codec.decode_into(&xs.refined, &mut xs.control);
                        false_alarms =
                            det.positions.iter().filter(|p| !xs.refined.contains(p)).count();
                        normal_positions = total - xs.refined.len();
                    }
                    let evm = per_subcarrier_evm(
                        &ws.rx.fe.equalized,
                        reference,
                        rate.modulation(),
                        erasures,
                    );
                    let snrs = ws.rx.fe.per_subcarrier_snr();
                    let mut snr_db = [0.0f64; NUM_DATA];
                    for (slot, &s) in snr_db.iter_mut().zip(snrs.iter()) {
                        *slot = cos_dsp::linear_to_db(s.max(1e-12));
                    }
                    select_control_subcarriers_into(
                        &evm,
                        &snr_db,
                        SelectionPolicy::weak_by_evm(
                            next_rate.modulation(),
                            config.min_control_subcarriers,
                        ),
                        &mut xs.fb_selection,
                    );
                    feedback = Some(FeedbackMeta {
                        measured_snr_db: measured,
                        false_alarms,
                        normal_positions,
                    });
                }

                let control_ok =
                    embed_control && control_present && xs.control.as_slice() == control_bits;
                Transceived {
                    data_ok: ws.rx.out.crc_ok,
                    front_end_ok: true,
                    control_present,
                    control_ok,
                    silences_sent,
                    accuracy,
                    measured,
                    rate,
                    phy_error: ws.rx.out.decode_error,
                    feedback,
                }
            }
            PlainStage::FrontEndFailed(e) => Transceived {
                data_ok: false,
                front_end_ok: false,
                control_present: false,
                control_ok: false,
                silences_sent,
                accuracy: DetectionAccuracy::default(),
                measured: f64::NEG_INFINITY,
                rate,
                phy_error: Some(e),
                feedback: None,
            },
        };

        // The world moves on between packets.
        self.link.channel_mut().advance(self.config.packet_interval);
        self.m.frames_tx += 1;
        self.m.control_embedded += embed_control as u64;
        self.m.frames_rx_ok += result.data_ok as u64;
        self.m.control_ok += result.control_ok as u64;
        result
    }

    /// Applies a delivered feedback report to the sender state.
    fn apply_feedback(&mut self, selection: Vec<usize>, measured_snr_db: f64) {
        self.selected = selection;
        self.adapter.feedback(measured_snr_db);
        self.rate = self.config.rate.unwrap_or_else(|| DataRate::select(measured_snr_db));
    }

    /// Applies the feedback report sitting in `xs.fb_selection` by
    /// swapping it into `selected` — the allocation-free twin of
    /// [`apply_feedback`](Self::apply_feedback). Only valid right after a
    /// transceive that produced `feedback: Some(_)`.
    fn apply_feedback_from_scratch(&mut self, measured_snr_db: f64) {
        std::mem::swap(&mut self.selected, &mut self.xs.fb_selection);
        self.adapter.feedback(measured_snr_db);
        self.rate = self.config.rate.unwrap_or_else(|| DataRate::select(measured_snr_db));
    }

    /// The sender-side feedback application of the paper's plain loop,
    /// shared by [`send_packet`](Self::send_packet) and
    /// [`send_packet_summary`](Self::send_packet_summary).
    fn finish_plain(&mut self, t: &Transceived) {
        if t.front_end_ok {
            if let Some(fb) = t.feedback {
                std::mem::swap(&mut self.selected, &mut self.xs.fb_selection);
                self.adapter.feedback(fb.measured_snr_db);
                self.m.feedback_delivered += 1;
            } else {
                self.adapter.transmission_failed();
            }
            self.rate = self.config.rate.unwrap_or_else(|| DataRate::select(t.measured));
        } else {
            self.adapter.transmission_failed();
        }
    }

    /// Builds the fixed-size summary of the packet just transceived.
    fn summarize(&self, t: &Transceived) -> PacketSummary {
        PacketSummary {
            data_ok: t.data_ok,
            control_present: t.control_present,
            control_ok: t.control_ok,
            silences_sent: t.silences_sent,
            detection: t.accuracy,
            measured_snr_db: t.measured,
            rate: t.rate,
            selected_len: self.selected.len(),
            selected_hash: fnv1a(
                self.selected.iter().flat_map(|&sc| (sc as u64).to_le_bytes()),
            ),
            control_hash: if t.control_present {
                fnv1a(self.xs.control.iter().copied())
            } else {
                0
            },
        }
    }

    /// Sends one data packet with `control_bits` embedded as silence
    /// symbols; runs the complete receive pipeline and feedback loop,
    /// trusting every feedback report (the paper's loop).
    ///
    /// # Panics
    ///
    /// Panics if `control_bits` length is not a multiple of the codec's
    /// `k` or the message exceeds the frame capacity.
    pub fn send_packet(&mut self, payload: &[u8], control_bits: &[u8]) -> PacketReport {
        let t = with_frame(|fs| self.transceive(fs, payload, control_bits, true));
        self.finish_plain(&t);
        PacketReport {
            data_ok: t.data_ok,
            control_bits: t.control_present.then(|| self.xs.control.clone()),
            control_ok: t.control_ok,
            silences_sent: t.silences_sent,
            detection: t.accuracy,
            measured_snr_db: t.measured,
            rate: t.rate,
            selected: self.selected.clone(),
        }
    }

    /// [`send_packet`](Self::send_packet) returning the fixed-size
    /// [`PacketSummary`] instead of an owned report: identical sender
    /// state evolution, zero heap allocations at steady state — the batch
    /// engine's per-job entry point.
    ///
    /// # Panics
    ///
    /// Panics if `control_bits` length is not a multiple of the codec's
    /// `k` or the message exceeds the frame capacity.
    pub fn send_packet_summary(&mut self, payload: &[u8], control_bits: &[u8]) -> PacketSummary {
        let t = with_frame(|fs| self.transceive(fs, payload, control_bits, true));
        self.finish_plain(&t);
        self.summarize(&t)
    }

    /// The finish stage of a plain engine job: descramble/CRC finish,
    /// then the same sender-state evolution and summary as
    /// [`send_packet_summary`](Self::send_packet_summary). Requires the
    /// tx, air, rx and Viterbi stages to have run on `fs`.
    pub(crate) fn plain_finish(
        &mut self,
        fs: &mut FrameScratch,
        control_bits: &[u8],
        prep: PlainPrep,
    ) -> PacketSummary {
        let t = self.transceive_finish(fs, control_bits, prep);
        self.finish_plain(&t);
        self.summarize(&t)
    }

    /// Sends one data packet through the resilience layer: control bits
    /// come from the ARQ queue (see [`CosSession::queue_control`]), the
    /// feedback report passes through the link's fault engine, and the
    /// degraded-mode state machine decides whether silences are embedded
    /// at all.
    pub fn send_packet_resilient(&mut self, payload: &[u8]) -> ResilientReport {
        let c = self.send_resilient_core(payload);
        ResilientReport {
            packet: PacketReport {
                data_ok: c.t.data_ok,
                control_bits: c.t.control_present.then(|| self.xs.control.clone()),
                control_ok: c.t.control_ok,
                silences_sent: c.t.silences_sent,
                detection: c.t.accuracy,
                measured_snr_db: c.t.measured,
                rate: c.t.rate,
                selected: self.selected.clone(),
            },
            mode: c.mode,
            mode_after: c.mode_after,
            control_attempted: c.attempted,
            control_acked: c.acked,
            feedback_delivered: c.delivered,
            phy_error: c.t.phy_error.map(|e| e.kind()),
        }
    }

    /// [`send_packet_resilient`](Self::send_packet_resilient) returning
    /// the fixed-size [`ResilientSummary`]: identical state evolution,
    /// no owned report. (The resilient path itself is not allocation-free
    /// — the ARQ queue clones its head message — but the summary adds
    /// nothing on top.)
    pub fn send_packet_resilient_summary(&mut self, payload: &[u8]) -> ResilientSummary {
        let c = self.send_resilient_core(payload);
        self.resilient_summarize(&c)
    }

    /// Packages a [`ResilientCore`] into the fixed-size summary — shared
    /// by the monolithic path and the engine's staged finish.
    pub(crate) fn resilient_summarize(&self, c: &ResilientCore) -> ResilientSummary {
        ResilientSummary {
            packet: self.summarize(&c.t),
            mode: c.mode,
            mode_after: c.mode_after,
            control_attempted: c.attempted,
            control_acked: c.acked,
            feedback_delivered: c.delivered,
            phy_error: c.t.phy_error.map(|e| e.kind()),
        }
    }

    /// The shared resilient-path core: ARQ poll, transceive, fault-gated
    /// feedback application, recalibration and mode bookkeeping.
    /// Composed from the tx / air / rx / Viterbi / finish stages so this
    /// monolithic form and the engine's batched form share one
    /// implementation of every stage.
    fn send_resilient_core(&mut self, payload: &[u8]) -> ResilientCore {
        with_frame(|fs| {
            let meta = self.resilient_prepare_tx(fs, payload);
            let prep = self.air_rx_viterbi(fs, meta.tx);
            self.resilient_finish(fs, meta, prep)
        })
    }

    /// The tx half of the resilient path: mode decides whether the
    /// control channel is exercised, the ARQ head (or the empty marker as
    /// a channel probe) supplies the bits — stored in the state's `msg`
    /// for the finish half — and the frame is built and rendered.
    pub(crate) fn resilient_prepare_tx(
        &mut self,
        fs: &mut FrameScratch,
        payload: &[u8],
    ) -> ResilientTx {
        self.ensure_resilience();
        let mut state = self.resilience.take().expect("just ensured");

        let mode = state.ctrl.mode();
        state.msg.clear();
        let (attempted, from_queue) = match mode {
            LinkMode::Cos | LinkMode::Probing => match state.arq.poll() {
                Some(b) => {
                    state.msg.extend_from_slice(&b);
                    (true, true)
                }
                None => (true, false),
            },
            LinkMode::DataOnly => (false, false),
        };

        let tx = self.transceive_prepare_tx(fs, payload, &state.msg, attempted);
        self.resilience = Some(state);
        ResilientTx { tx, mode, attempted, from_queue }
    }

    /// The finish half of the resilient path: descramble/CRC finish via
    /// [`transceive_finish`](Self::transceive_finish), then the
    /// fault-gated feedback application, recalibration and mode
    /// bookkeeping. Requires the rx-prepare and Viterbi stages to have
    /// run.
    pub(crate) fn resilient_finish(
        &mut self,
        fs: &mut FrameScratch,
        meta: ResilientTx,
        prep: PlainPrep,
    ) -> ResilientCore {
        let ResilientTx { tx: _, mode, attempted, from_queue } = meta;
        let mut state = self.resilience.take().expect("prepared by resilient_prepare_tx");

        let t = self.transceive_finish(fs, &state.msg, prep);
        let fate = self.link.feedback_fate();

        if let Some(e) = &t.phy_error {
            state.tally.record(e);
        }

        let mut delivered = false;
        match t.feedback {
            Some(fb) => {
                // The receiver generated a report; remember the truth for
                // later stale deliveries regardless of this packet's fate.
                state.history.push_front(HistoryEntry {
                    selection: self.xs.fb_selection.clone(),
                    measured_snr_db: fb.measured_snr_db,
                });
                state.history.truncate(FEEDBACK_HISTORY);

                // Recalibration is receiver-side: it needs no reverse path.
                if attempted {
                    if let Some(bias) = state.recal.observe(fb.false_alarms, fb.normal_positions) {
                        self.detector = EnergyDetector::new(bias);
                    }
                }

                match fate {
                    FeedbackFate::Deliver => {
                        self.apply_feedback_from_scratch(fb.measured_snr_db);
                        delivered = true;
                    }
                    FeedbackFate::Drop => {
                        self.adapter.transmission_failed();
                    }
                    FeedbackFate::Stale(d) => {
                        // Index 0 is the report just pushed; `d` packets
                        // ago is index d (when that far back exists).
                        if let Some(old) = state.history.get(d).cloned() {
                            self.apply_feedback(old.selection, old.measured_snr_db);
                            delivered = true;
                        } else {
                            self.adapter.transmission_failed();
                        }
                    }
                    FeedbackFate::Corrupt { xor_mask } => {
                        let mut sel = corrupt_selection(&self.xs.fb_selection, xor_mask);
                        sanitize_selection(&mut sel, self.config.min_control_subcarriers);
                        self.apply_feedback(sel, fb.measured_snr_db);
                        delivered = true;
                    }
                }
            }
            None => {
                self.adapter.transmission_failed();
            }
        }

        // The control confirmation rides the feedback report: no report
        // delivered, no ACK — the ARQ retries (a lost ACK costs a
        // duplicate, never a silent loss).
        self.m.feedback_delivered += delivered as u64;
        let acked = attempted && t.control_ok && delivered;
        if from_queue {
            if acked {
                state.arq.confirm(self.seq);
            } else {
                state.arq.reject();
            }
        }

        state.ctrl.observe(
            self.seq,
            PacketObservation {
                feedback_fresh: delivered,
                control_attempted: attempted,
                control_ok: acked,
                crc_ok: t.data_ok,
            },
        );
        let mode_after = state.ctrl.mode();
        self.resilience = Some(state);

        ResilientCore { t, mode, mode_after, attempted, acked, delivered }
    }

    /// Sends one data packet through the closed adaptation loop: the
    /// [`crate::adaptation`] rate staircase picks the rate, the
    /// silence-budget probe search sizes the control payload (ARQ head
    /// plus deterministic filler bits up to the probe budget), and the
    /// packet's outcome — measured SNR, feedback fate, control ACK —
    /// feeds both state machines for the next packet.
    ///
    /// # Examples
    ///
    /// Queue a control message, then drive the loop for a few packets:
    /// the staircase acquires a rate from the first feedback report, the
    /// probe search starts sizing the silence budget, and the ARQ
    /// confirms delivery:
    ///
    /// ```
    /// use cos_core::session::{CosSession, SessionConfig};
    ///
    /// let mut s = CosSession::new(SessionConfig { snr_db: 24.0, ..Default::default() }, 7);
    /// s.queue_adaptive_control(vec![1, 0, 1, 1, 0, 0, 1, 0]);
    /// let mut delivered = false;
    /// for _ in 0..8 {
    ///     let r = s.send_packet_adaptive(&[0xAB; 600]);
    ///     delivered |= r.control_acked;
    /// }
    /// assert!(delivered, "ARQ delivers over a clean 24 dB link");
    /// assert_eq!(s.adaptive_arq_stats().delivered, 1);
    /// ```
    pub fn send_packet_adaptive(&mut self, payload: &[u8]) -> AdaptiveReport {
        let c = self.send_adaptive_core(payload);
        AdaptiveReport {
            packet: PacketReport {
                data_ok: c.t.data_ok,
                control_bits: c.t.control_present.then(|| self.xs.control.clone()),
                control_ok: c.t.control_ok,
                silences_sent: c.t.silences_sent,
                detection: c.t.accuracy,
                measured_snr_db: c.t.measured,
                rate: c.t.rate,
                selected: self.selected.clone(),
            },
            ewma_snr_db: (c.ewma_snr_db != f64::NEG_INFINITY).then_some(c.ewma_snr_db),
            budget: c.budget,
            rate_after: c.rate_after,
            budget_after: c.budget_after,
            search_state: c.search_state,
            staircase_event: c.events.staircase,
            probe_event: c.events.probe,
            control_acked: c.acked,
            feedback_delivered: c.delivered,
        }
    }

    /// [`send_packet_adaptive`](Self::send_packet_adaptive) returning
    /// the fixed-size [`AdaptiveSummary`]: identical state evolution, no
    /// owned report — the batch engine's adaptive-job entry point. (Like
    /// the resilient path, the ARQ queue clones its head message; the
    /// summary itself adds nothing on top.)
    pub fn send_packet_adaptive_summary(&mut self, payload: &[u8]) -> AdaptiveSummary {
        let c = self.send_adaptive_core(payload);
        self.adaptive_summarize(&c)
    }

    /// Packages an [`AdaptiveCore`] into the fixed-size summary — shared
    /// by the monolithic path and the engine's staged finish.
    pub(crate) fn adaptive_summarize(&self, c: &AdaptiveCore) -> AdaptiveSummary {
        AdaptiveSummary {
            packet: self.summarize(&c.t),
            ewma_snr_db: c.ewma_snr_db,
            budget: c.budget,
            rate_after: c.rate_after,
            budget_after: c.budget_after,
            search_state: c.search_state,
            staircase_event: c.events.staircase,
            probe_event: c.events.probe,
            control_acked: c.acked,
            feedback_delivered: c.delivered,
        }
    }

    /// The shared adaptive-path core: read the controller's rate and
    /// budget, compose the probe message, transceive, and feed the
    /// outcome back into the controller. Composed from the tx / air / rx
    /// / Viterbi / finish stages like the resilient core.
    fn send_adaptive_core(&mut self, payload: &[u8]) -> AdaptiveCore {
        with_frame(|fs| {
            let meta = self.adaptive_prepare_tx(fs, payload);
            let prep = self.air_rx_viterbi(fs, meta.tx);
            self.adaptive_finish(fs, meta, prep)
        })
    }

    /// The tx half of the adaptive path: the staircase picks the rate,
    /// the probe search sizes the budget, the probe message is composed
    /// into the state's `msg`, and the frame is built and rendered.
    pub(crate) fn adaptive_prepare_tx(
        &mut self,
        fs: &mut FrameScratch,
        payload: &[u8],
    ) -> AdaptiveTx {
        self.ensure_adaptation();
        let mut state = self.adaptation.take().expect("just ensured");

        // The staircase owns the rate unless the config pins one.
        let rate = self.config.rate.unwrap_or_else(|| state.ctrl.rate());
        self.rate = rate;
        let target = state.ctrl.target_budget();

        // Clamp the probe to what this frame can physically carry: the
        // interval code spends at most 2^k + 1 control positions per
        // interval, and the embedder can expand the selection up to all
        // NUM_DATA subcarriers, so a frame of `n` symbols always fits
        // `(n·NUM_DATA − 1) / (2^k + 1)` intervals. Short frames at fast
        // rates would otherwise overflow the frame's control capacity.
        let k = self.controller.codec().bits_per_interval();
        let total_positions = rate.data_symbol_count(payload.len() + 4) * NUM_DATA;
        let max_intervals = total_positions.saturating_sub(1) / ((1usize << k) + 1);
        let sent_budget = target.min(max_intervals + 1);
        let capacity_bits = sent_budget.saturating_sub(1) * k;

        // Compose the probe message: the ARQ head (if any) padded with
        // filler bits to the full budget, so every adaptive packet
        // exercises exactly the budget it claims to probe. The filler is
        // a pure function of the packet sequence number — determinism by
        // construction.
        state.msg.clear();
        let from_queue = match state.arq.poll() {
            Some(bits) => {
                state.msg.extend_from_slice(&bits);
                true
            }
            None => false,
        };
        let next_seq = self.seq + 1;
        while state.msg.len() < capacity_bits {
            let i = state.msg.len() as u64;
            let x = next_seq
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i.wrapping_mul(0xA24B_AED4_963E_E407));
            state.msg.push(((x >> 32) & 1) as u8);
        }

        let tx = self.transceive_prepare_tx(fs, payload, &state.msg, true);
        self.adaptation = Some(state);
        AdaptiveTx { tx, target, from_queue }
    }

    /// The finish half of the adaptive path: descramble/CRC finish via
    /// [`transceive_finish`](Self::transceive_finish), then the feedback
    /// gate, probe confirmation and controller observation. Requires the
    /// rx-prepare and Viterbi stages to have run.
    pub(crate) fn adaptive_finish(
        &mut self,
        fs: &mut FrameScratch,
        meta: AdaptiveTx,
        prep: PlainPrep,
    ) -> AdaptiveCore {
        let AdaptiveTx { tx: _, target, from_queue } = meta;
        let mut state = self.adaptation.take().expect("prepared by adaptive_prepare_tx");

        let t = self.transceive_finish(fs, &state.msg, prep);
        let fate = self.link.feedback_fate();

        // Adaptation trusts only fresh feedback: stale, corrupt or
        // dropped reports all count as misses (the resilient layer is
        // the place that salvages degraded reports).
        let mut delivered = false;
        match t.feedback {
            Some(fb) if matches!(fate, FeedbackFate::Deliver) => {
                self.apply_adaptive_feedback(fb.measured_snr_db);
                delivered = true;
            }
            _ => self.adapter.transmission_failed(),
        }

        // Probe confirmation rides the feedback report, exactly like the
        // resilient path's ACKs: no report, no ACK.
        let acked = t.control_ok && delivered;
        if from_queue {
            if acked {
                state.arq.confirm(self.seq);
            } else {
                state.arq.reject();
            }
        }

        // A clamped packet carried fewer silences than the probe target,
        // so its outcome says nothing about the probed budget.
        let carried_full = t.silences_sent >= target;
        let events = state.ctrl.observe(delivered.then_some(t.measured), acked, carried_full);
        self.m.feedback_delivered += delivered as u64;
        self.m.adaptation_events += (events.staircase != StaircaseEvent::Hold) as u64
            + (events.probe != ProbeEvent::Hold) as u64;

        let core = AdaptiveCore {
            t,
            budget: target,
            rate_after: self.config.rate.unwrap_or_else(|| state.ctrl.rate()),
            budget_after: state.ctrl.target_budget(),
            search_state: state.ctrl.search_state(),
            events,
            acked,
            delivered,
            ewma_snr_db: state.ctrl.ewma_snr_db().unwrap_or(f64::NEG_INFINITY),
        };
        self.adaptation = Some(state);
        core
    }

    /// Applies a fresh feedback report on the adaptive path: selection
    /// swap + control-rate bookkeeping, but **not** the plain loop's
    /// instantaneous `DataRate::select` — the staircase owns the rate.
    fn apply_adaptive_feedback(&mut self, measured_snr_db: f64) {
        std::mem::swap(&mut self.selected, &mut self.xs.fb_selection);
        self.adapter.feedback(measured_snr_db);
    }

    /// Bounds the session's control-subcarrier selection to the 48 data
    /// subcarriers, in place: out-of-range indices are dropped, duplicates
    /// removed, and a selection that ends up empty (all indices out of
    /// range — corrupted feedback) is replaced by the bootstrap fallback
    /// block, so silence placement never sees an empty or out-of-range
    /// set. Harness code that builds custom selections outside a session
    /// should use [`crate::validation::sanitize_selection`] directly.
    pub fn clamp_selection(&mut self) {
        sanitize_selection(&mut self.selected, self.config.min_control_subcarriers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_channel::{BurstInterference, FeedbackCorruption, FeedbackLoss};

    fn bits(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 5 + 1) % 3 == 0) as u8).collect()
    }

    #[test]
    fn high_snr_session_delivers_data_and_control() {
        let mut s = CosSession::new(SessionConfig { snr_db: 24.0, ..Default::default() }, 42);
        let msg = bits(16);
        s.send_packet(&[0xAB; 600], &msg); // warm-up: establish feedback
        let mut control_hits = 0;
        let mut data_hits = 0;
        for _ in 0..20 {
            let r = s.send_packet(&[0xAB; 600], &msg);
            control_hits += r.control_ok as u32;
            data_hits += r.data_ok as u32;
        }
        assert!(data_hits >= 19, "data {data_hits}/20");
        assert!(control_hits >= 19, "control {control_hits}/20");
    }

    #[test]
    fn selection_adapts_after_first_packet() {
        let mut s = CosSession::new(SessionConfig { snr_db: 20.0, ..Default::default() }, 3);
        let bootstrap = s.selected_subcarriers().to_vec();
        let r = s.send_packet(&[1; 400], &bits(8));
        assert!(r.data_ok);
        // After EVM feedback the selection is recomputed (it may or may
        // not equal the bootstrap, but it must be valid and big enough).
        assert!(s.selected_subcarriers().len() >= 6);
        assert!(s.selected_subcarriers().iter().all(|&sc| sc < NUM_DATA));
        let _ = bootstrap;
    }

    #[test]
    fn rate_adaptation_tracks_snr() {
        let mut high = CosSession::new(SessionConfig { snr_db: 26.0, ..Default::default() }, 11);
        let mut low = CosSession::new(SessionConfig { snr_db: 8.0, ..Default::default() }, 11);
        for _ in 0..3 {
            high.send_packet(&[0; 200], &bits(4));
            low.send_packet(&[0; 200], &bits(4));
        }
        assert!(high.current_rate() > low.current_rate());
    }

    #[test]
    fn fixed_rate_is_respected() {
        let cfg = SessionConfig { rate: Some(DataRate::Mbps18), snr_db: 25.0, ..Default::default() };
        let mut s = CosSession::new(cfg, 5);
        for _ in 0..3 {
            let r = s.send_packet(&[0; 200], &bits(4));
            assert_eq!(r.rate, DataRate::Mbps18);
        }
    }

    #[test]
    fn report_counts_silences() {
        let mut s = CosSession::new(SessionConfig { snr_db: 22.0, ..Default::default() }, 9);
        let msg = bits(12); // 3 groups → 4 silences
        let r = s.send_packet(&[0; 300], &msg);
        assert_eq!(r.silences_sent, 4);
    }

    #[test]
    fn empty_control_message_still_sends_marker() {
        let mut s = CosSession::new(SessionConfig { snr_db: 22.0, ..Default::default() }, 13);
        // Warm up: the bootstrap selection is blind to the channel, so
        // the first packet only establishes EVM/SNR feedback. Use a
        // realistically sized packet — EVM feedback from a 4-symbol frame
        // is too noisy to select subcarriers from.
        s.send_packet(&[0; 600], &[]);
        let r = s.send_packet(&[0; 600], &[]);
        assert_eq!(r.silences_sent, 1);
        assert!(r.data_ok);
        assert_eq!(r.control_bits, Some(vec![]));
    }

    #[test]
    fn clamp_selection_sanitises() {
        let mut s = CosSession::new(SessionConfig::default(), 1);
        s.selected = vec![50, 3, 3, 12];
        s.clamp_selection();
        assert_eq!(s.selected_subcarriers(), &[3, 12]);
    }

    #[test]
    fn clamp_selection_falls_back_when_emptied() {
        // Everything out of range — the paper's loop would panic deep in
        // silence placement; the fallback keeps the link alive.
        let mut s = CosSession::new(SessionConfig::default(), 1);
        s.selected = vec![48, 99, 1000];
        s.clamp_selection();
        assert!(!s.selected_subcarriers().is_empty());
        assert!(s.selected_subcarriers().iter().all(|&sc| sc < NUM_DATA));
        assert!(s.selected_subcarriers().len() >= s.config.min_control_subcarriers);
    }

    #[test]
    fn silence_budget_is_positive() {
        let s = CosSession::new(SessionConfig::default(), 1);
        assert!(s.silence_budget(1024) > 0);
    }

    #[test]
    fn resilient_path_delivers_queued_messages_on_clean_link() {
        let mut s = CosSession::new(SessionConfig { snr_db: 24.0, ..Default::default() }, 21);
        s.send_packet_resilient(&[0xAB; 600]); // warm-up feedback
        for _ in 0..4 {
            s.queue_control(bits(8));
        }
        for _ in 0..12 {
            s.send_packet_resilient(&[0xAB; 600]);
        }
        let stats = s.arq_stats();
        assert_eq!(stats.delivered, 4, "stats: {stats:?}");
        assert_eq!(stats.failed, 0);
        assert_eq!(s.mode(), LinkMode::Cos);
        assert_eq!(s.arq_backlog(), 0);
    }

    #[test]
    fn feedback_blackout_degrades_then_recovers() {
        let mut s = CosSession::new(SessionConfig { snr_db: 24.0, ..Default::default() }, 33);
        // Total reverse-path loss for packets 5..20, then clear skies.
        s.set_faults(
            cos_channel::FaultEngine::new()
                .with(FeedbackLoss::new(1.0, 7))
                .with_window(5, 20),
        );
        let mut saw_data_only = false;
        for _ in 0..40 {
            let r = s.send_packet_resilient(&[0x55; 600]);
            saw_data_only |= r.mode == LinkMode::DataOnly;
            // Data keeps flowing whatever the mode.
            assert!(r.packet.data_ok || r.phy_error.is_some());
        }
        assert!(saw_data_only, "blackout never degraded the link");
        assert_eq!(s.mode(), LinkMode::Cos, "link never recovered: {:?}", s.transitions());
    }

    #[test]
    fn corrupted_feedback_never_yields_invalid_selection() {
        let mut s = CosSession::new(SessionConfig { snr_db: 22.0, ..Default::default() }, 17);
        s.set_faults(
            cos_channel::FaultEngine::new().with(FeedbackCorruption::new(1.0, 48, 13)),
        );
        for _ in 0..15 {
            s.send_packet_resilient(&[0x0F; 500]);
            assert!(!s.selected_subcarriers().is_empty());
            assert!(s.selected_subcarriers().iter().all(|&sc| sc < NUM_DATA));
            let sel = s.selected_subcarriers();
            assert!(sel.windows(2).all(|w| w[0] < w[1]), "unsorted/dup selection {sel:?}");
        }
    }

    #[test]
    fn adaptive_path_climbs_rate_and_budget_on_clean_link() {
        let mut s = CosSession::new(SessionConfig { snr_db: 24.0, ..Default::default() }, 51);
        let mut r = s.send_packet_adaptive(&[0xAB; 600]);
        // First packet goes out at the unacquired staircase state.
        assert_eq!(r.packet.rate, DataRate::Mbps6);
        for _ in 0..40 {
            r = s.send_packet_adaptive(&[0xAB; 600]);
        }
        let ctrl = s.adaptation_controller().expect("adaptive path ran");
        assert!(ctrl.rate() >= DataRate::Mbps36, "staircase stuck at {:?}", ctrl.rate());
        assert!(
            ctrl.target_budget() > 2,
            "probe search never confirmed a budget above base: {}",
            ctrl.target_budget()
        );
        assert!(r.ewma_snr_db.is_some());
    }

    #[test]
    fn adaptive_path_respects_pinned_rate() {
        let cfg = SessionConfig { rate: Some(DataRate::Mbps18), snr_db: 25.0, ..Default::default() };
        let mut s = CosSession::new(cfg, 5);
        for _ in 0..6 {
            let r = s.send_packet_adaptive(&[0; 400]);
            assert_eq!(r.packet.rate, DataRate::Mbps18);
            assert_eq!(r.rate_after, DataRate::Mbps18);
        }
    }

    #[test]
    fn adaptive_summary_matches_report_state_evolution() {
        let mut by_report = CosSession::new(SessionConfig { snr_db: 21.0, ..Default::default() }, 77);
        let mut by_summary = CosSession::new(SessionConfig { snr_db: 21.0, ..Default::default() }, 77);
        by_report.queue_adaptive_control(bits(8));
        by_summary.queue_adaptive_control(bits(8));
        for _ in 0..10 {
            let r = by_report.send_packet_adaptive(&[0x3C; 500]);
            let m = by_summary.send_packet_adaptive_summary(&[0x3C; 500]);
            assert_eq!(r.packet.data_ok, m.packet.data_ok);
            assert_eq!(r.packet.control_ok, m.packet.control_ok);
            assert_eq!(r.packet.silences_sent, m.packet.silences_sent);
            assert_eq!(r.packet.measured_snr_db.to_bits(), m.packet.measured_snr_db.to_bits());
            assert_eq!(r.budget, m.budget);
            assert_eq!(r.budget_after, m.budget_after);
            assert_eq!(r.rate_after, m.rate_after);
            assert_eq!(r.control_acked, m.control_acked);
        }
        assert_eq!(by_report.selected_subcarriers(), by_summary.selected_subcarriers());
    }

    #[test]
    fn adaptive_short_frame_clamps_probe_without_panicking() {
        // A 30-byte payload at a fast pinned rate has very few symbols;
        // the probe must clamp to the frame instead of overflowing the
        // embedder.
        let cfg = SessionConfig {
            rate: Some(DataRate::Mbps54),
            snr_db: 26.0,
            adaptation: Some(crate::adaptation::AdaptationConfig {
                base_budget: 2,
                probe_step: 16,
                max_budget: 64,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut s = CosSession::new(cfg, 91);
        for _ in 0..10 {
            let r = s.send_packet_adaptive(&[0x77; 30]);
            assert!(r.packet.silences_sent <= r.budget);
        }
    }

    #[test]
    fn adaptive_reinit_equals_fresh_session() {
        let cfg = SessionConfig { snr_db: 19.0, ..Default::default() };
        let mut recycled = CosSession::new(
            SessionConfig { snr_db: 9.0, rate: Some(DataRate::Mbps6), ..Default::default() },
            999,
        );
        recycled.queue_adaptive_control(bits(8));
        for _ in 0..5 {
            recycled.send_packet_adaptive(&[0x11; 300]);
        }
        recycled.reinit(cfg.clone(), 4242);
        let mut fresh = CosSession::new(cfg, 4242);
        for _ in 0..8 {
            let a = recycled.send_packet_adaptive_summary(&[0x22; 400]);
            let b = fresh.send_packet_adaptive_summary(&[0x22; 400]);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn set_snr_db_drift_downgrades_rate() {
        let mut s = CosSession::new(SessionConfig { snr_db: 26.0, ..Default::default() }, 61);
        for _ in 0..12 {
            s.send_packet_adaptive(&[0xAB; 600]);
        }
        let high_rate = s.adaptation_controller().expect("ran").rate();
        assert!(high_rate >= DataRate::Mbps36);
        s.set_snr_db(8.0);
        for _ in 0..12 {
            s.send_packet_adaptive(&[0xAB; 600]);
        }
        let low_rate = s.adaptation_controller().expect("ran").rate();
        assert!(low_rate < high_rate, "rate never tracked the SNR collapse");
    }

    #[test]
    fn metrics_count_across_paths_and_reset_on_reinit() {
        let cfg = SessionConfig { snr_db: 24.0, ..Default::default() };
        let mut s = CosSession::new(cfg.clone(), 42);
        assert_eq!(s.metrics(), SessionMetrics::default());

        s.send_packet(&[0xAB; 600], &bits(8));
        s.queue_control(bits(8));
        s.send_packet_resilient(&[0xAB; 600]);
        s.queue_adaptive_control(bits(8));
        for _ in 0..6 {
            s.send_packet_adaptive(&[0xAB; 600]);
        }
        let m = s.metrics();
        assert_eq!(m.frames_tx, 8);
        assert_eq!(m.control_embedded, 8, "all three paths embed on a clean link");
        assert!(m.frames_rx_ok >= 7, "24 dB link: {m:?}");
        assert!(m.control_ok >= 6, "{m:?}");
        assert!(m.feedback_delivered >= 7, "{m:?}");
        assert!(m.adaptation_events >= 2, "acquire + probe confirmations: {m:?}");
        assert!(m.silence_budget >= 2, "{m:?}");

        // A recycled session reports like a fresh one.
        s.reinit(cfg, 43);
        assert_eq!(s.metrics(), SessionMetrics::default());
    }

    #[test]
    fn metrics_arq_retries_count_reattempts() {
        // Reverse-path blackout for a stretch: the queued message must be
        // retried, and every attempt beyond the first counts.
        let mut s = CosSession::new(SessionConfig { snr_db: 24.0, ..Default::default() }, 33);
        s.send_packet_resilient(&[0x55; 600]); // warm-up feedback
        s.set_faults(
            cos_channel::FaultEngine::new().with(FeedbackLoss::new(1.0, 7)).with_window(0, 4),
        );
        s.queue_control(bits(8));
        for _ in 0..8 {
            s.send_packet_resilient(&[0x55; 600]);
        }
        let m = s.metrics();
        assert!(m.arq_retries >= 1, "blackout forced no retries: {m:?}");
    }

    /// The send path of one frame in [`frame_on`].
    #[derive(Debug, Clone, Copy)]
    enum Path {
        Plain,
        Resilient,
        Adaptive,
    }

    /// Runs one frame of `path` on `fs` through the stage functions the
    /// engine drives, keeping the ARQ queues fed.
    fn frame_on(
        s: &mut CosSession,
        fs: &mut FrameScratch,
        path: Path,
        payload: &[u8],
        msg: &[u8],
    ) -> crate::engine::JobResult {
        use crate::engine::JobResult;
        match path {
            Path::Plain => {
                let tok = s.transceive_prepare_tx(fs, payload, msg, true);
                let prep = s.air_rx_viterbi(fs, tok);
                JobResult::Plain(s.plain_finish(fs, msg, prep))
            }
            Path::Resilient => {
                if s.arq_backlog() == 0 {
                    s.queue_control(msg.to_vec());
                }
                let meta = s.resilient_prepare_tx(fs, payload);
                let prep = s.air_rx_viterbi(fs, meta.tx);
                let core = s.resilient_finish(fs, meta, prep);
                JobResult::Resilient(s.resilient_summarize(&core))
            }
            Path::Adaptive => {
                if s.adaptive_backlog() == 0 {
                    s.queue_adaptive_control(msg.to_vec());
                }
                let meta = s.adaptive_prepare_tx(fs, payload);
                let prep = s.air_rx_viterbi(fs, meta.tx);
                let core = s.adaptive_finish(fs, meta, prep);
                JobResult::Adaptive(s.adaptive_summarize(&core))
            }
        }
    }

    #[test]
    fn scratch_dirtied_by_another_session_changes_nothing() {
        // Two sessions that differ in rate, payload length, path order
        // and faults share one FrameScratch, interleaved frame by frame,
        // so each frame starts on scratch the *other* session dirtied.
        // Every outcome and the final sender state must equal twins run
        // on fresh scratch for every frame.
        let cfg_a =
            SessionConfig { snr_db: 21.0, rate: Some(DataRate::Mbps6), ..Default::default() };
        let cfg_b = SessionConfig { snr_db: 17.0, ..Default::default() };
        let build = || {
            let a = CosSession::new(cfg_a.clone(), 71);
            let mut b = CosSession::new(cfg_b.clone(), 72);
            b.set_faults(FaultEngine::new().with(BurstInterference::new(25.0, 300, 0.3, 5)));
            (a, b)
        };
        let (mut a, mut b) = build();
        let (mut a_ref, mut b_ref) = build();
        let (pa, pb) = ([0x5Au8; 1020], [0xC3u8; 96]);
        let paths = [Path::Plain, Path::Resilient, Path::Adaptive];
        let mut shared = FrameScratch::default();
        for i in 0..12 {
            let (path_a, path_b) = (paths[i % 3], paths[(i + 1) % 3]);
            let (msg_a, msg_b) = (bits(16), bits(8));
            let got_a = frame_on(&mut a, &mut shared, path_a, &pa, &msg_a);
            let got_b = frame_on(&mut b, &mut shared, path_b, &pb, &msg_b);
            let want_a = frame_on(&mut a_ref, &mut FrameScratch::default(), path_a, &pa, &msg_a);
            let want_b = frame_on(&mut b_ref, &mut FrameScratch::default(), path_b, &pb, &msg_b);
            assert_eq!(format!("{got_a:?}"), format!("{want_a:?}"), "session A frame {i}");
            assert_eq!(format!("{got_b:?}"), format!("{want_b:?}"), "session B frame {i}");
        }
        for (s, r) in [(&a, &a_ref), (&b, &b_ref)] {
            assert_eq!(s.selected_subcarriers(), r.selected_subcarriers());
            assert_eq!(s.current_rate(), r.current_rate());
            assert_eq!(s.metrics(), r.metrics());
        }
    }

    #[test]
    fn burst_interference_is_tallied_not_panicking() {
        let mut s = CosSession::new(SessionConfig { snr_db: 20.0, ..Default::default() }, 29);
        s.set_faults(
            cos_channel::FaultEngine::new().with(BurstInterference::new(30.0, 400, 0.8, 3)),
        );
        for _ in 0..15 {
            s.send_packet_resilient(&[0xA5; 400]);
        }
        // No assertion on delivery — the point is surviving the bursts and
        // classifying failures instead of panicking.
        let _ = s.phy_errors();
    }
}
