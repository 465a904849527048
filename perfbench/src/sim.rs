//! Simulated statistics: what the simulated link delivered, independent
//! of host speed. A workload tallies them over a fixed prefix of steps, so
//! they are identical for every run of one seed; the end-to-end metrics
//! take them from the prefix of the reference seed.

use cos_core::energy_detector::DetectionAccuracy;
use cos_core::session::PacketSummary;
use cos_phy::rates::DataRate;

/// Counters of one workload's simulated traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sim {
    /// Frames sent.
    pub frames: u64,
    /// Frames whose CRC passed.
    pub frames_ok: u64,
    /// Payload bits of CRC-passing frames.
    pub payload_bits_ok: u64,
    /// Simulated airtime of all frames, µs.
    pub airtime_us: f64,
    /// Control messages resolved (delivered or given up).
    pub ctl_resolved: u64,
    /// Control messages delivered.
    pub ctl_delivered: u64,
    /// Frames that carried a control message.
    pub ctl_frames: u64,
    /// Frames whose control was decoded as present but differed from
    /// what was sent.
    pub ctl_garbled: u64,
    /// Silence symbols sent.
    pub silences_sent: u64,
    /// Transmitted silences the receiver missed.
    pub silence_missed: u64,
    /// Transmitted silences in total.
    pub silence_actual: u64,
    /// Normal symbols flagged silent.
    pub silence_phantom: u64,
    /// Normal symbols scanned in total.
    pub silence_normals: u64,
    /// ARQ transmission attempts.
    pub arq_attempts: u64,
    /// Rate changes between consecutive frames of one session.
    pub rate_changes: u64,
    /// Frames lost before the DATA field: the receiver's front end found
    /// no frame (a simulated loss, counted in `data_delivery`).
    pub fe_failures: u64,
}

impl Sim {
    /// Tallies one frame's data and silence-plane outcome.
    pub fn frame(&mut self, p: &PacketSummary, payload_len: usize) {
        self.frames += 1;
        self.fe_failures += (p.measured_snr_db == f64::NEG_INFINITY) as u64;
        self.airtime_us += p.rate.frame_airtime_us(payload_len + 4);
        if p.data_ok {
            self.frames_ok += 1;
            self.payload_bits_ok += 8 * payload_len as u64;
        }
        self.silences_sent += p.silences_sent as u64;
        self.detection(&p.detection);
    }

    /// Tallies a detection-accuracy record.
    pub fn detection(&mut self, d: &DetectionAccuracy) {
        self.silence_missed += d.false_negatives as u64;
        self.silence_actual += d.actual_silences as u64;
        self.silence_phantom += d.false_positives as u64;
        self.silence_normals += d.actual_normals as u64;
    }

    /// Counts a rate change when `rate` differs from the session's last.
    pub fn rate(&mut self, last: &mut Option<DataRate>, rate: DataRate) {
        if last.is_some_and(|r| r != rate) {
            self.rate_changes += 1;
        }
        *last = Some(rate);
    }

    /// Share of frames whose CRC passed.
    pub fn data_delivery(&self) -> f64 {
        self.frames_ok as f64 / self.frames as f64
    }

    /// Share of resolved control messages that were delivered.
    pub fn control_delivery(&self) -> f64 {
        self.ctl_delivered as f64 / self.ctl_resolved as f64
    }

    /// Share of control-carrying frames decoded as a wrong message.
    pub fn control_garbled(&self) -> f64 {
        self.ctl_garbled as f64 / self.ctl_frames as f64
    }

    /// Payload bits of CRC-passing frames over the airtime of all frames.
    pub fn goodput_mbps(&self) -> f64 {
        self.payload_bits_ok as f64 / self.airtime_us
    }

    /// The four simulated end-to-end metrics with their units, in output
    /// order.
    pub fn end_to_end(&self) -> [(&'static str, f64, &'static str); 4] {
        [
            ("data_delivery", self.data_delivery(), "share"),
            ("control_delivery", self.control_delivery(), "share"),
            ("control_garbled", self.control_garbled(), "share"),
            ("sim_goodput_mbps", self.goodput_mbps(), "Mbps"),
        ]
    }

    /// The silence-plane and control counters of the traced run.
    pub fn counts(&self) -> [(&'static str, f64); 5] {
        [
            (
                "core.silences_per_frame",
                self.silences_sent as f64 / self.frames as f64,
            ),
            (
                "core.silence_missed_share",
                ratio(self.silence_missed, self.silence_actual),
            ),
            (
                "core.silence_phantom_share",
                ratio(self.silence_phantom, self.silence_normals),
            ),
            (
                "resilience.arq_attempts_per_msg",
                ratio(self.arq_attempts, self.ctl_resolved),
            ),
            (
                "adaptation.rate_changes_per_kframe",
                1000.0 * ratio(self.rate_changes, self.frames),
            ),
        ]
    }
}

/// `a / b`, 0 when `b` is 0 (a count that does not apply).
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
