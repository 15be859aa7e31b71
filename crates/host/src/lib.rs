//! The host-PC side of the DistScroll's wireless link.
//!
//! The authors built "a self contained interaction device that can be
//! wirelessly linked to a PC" (paper, Section 3.2) and used the PC for
//! instrumentation: the same role this crate plays for the simulated
//! prototype. It consumes the raw radio byte stream and turns it into
//! study data:
//!
//! * [`telemetry`] — the wire protocol: typed state (`T`) and event
//!   (`E`) records, and a stream decoder that stacks on the link-layer
//!   frame decoder,
//! * [`session`] — a session log: ingests records, reconstructs the
//!   timeline (the device stamps records with its tick counter),
//!   derives per-trial measures (selection times, scroll paths,
//!   direction reversals) and exports CSV,
//! * [`pda`] — the §7 PDA add-on's host-rendered menu screen,
//! * [`replay`] — converts logged ADC codes back to distances through
//!   the calibration curve and renders the hand's trajectory as an
//!   ASCII sparkline — the "what did the participant actually do"
//!   view an experimenter wants.
//!
//! # Example
//!
//! ```
//! use distscroll_host::telemetry::{Record, StreamDecoder};
//! use distscroll_hw::link::encode_frame;
//!
//! let mut dec = StreamDecoder::new();
//! // A state record as the firmware encodes it.
//! let frame = encode_frame(&[b'T', 0, 10, 0x01, 0x42, 3, 0, 5]).unwrap();
//! let records = dec.push_bytes(&frame);
//! assert!(matches!(records[0], Record::State(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pda;
pub mod replay;
pub mod session;
pub mod telemetry;
