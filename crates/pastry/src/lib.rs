//! # cbps-pastry — a second overlay substrate, proving portability
//!
//! The paper states (§3.1, footnote 1) that its publish-subscribe
//! infrastructure "is portable in the sense that it can use any overlay
//! routing scheme" (CAN, Chord, Pastry, Tapestry). This crate makes the
//! claim concrete: a **Pastry-style overlay** — bit-prefix routing table
//! plus leaf sets — hosting the *unchanged* CB-pub/sub layer of the
//! [`cbps`] crate through the overlay-neutral
//! [`cbps_overlay::OverlayServices`] surface.
//!
//! The substrate plugs into the generic deployment layer through
//! [`cbps::OverlayBackend`]: [`PastryPubSub`] is the *same*
//! `PubSubNetwork` type as the Chord deployment, instantiated with
//! [`PastryBackend`] — one façade, builder, handle and observability
//! surface for both overlays.
//!
//! Scope notes (documented simplifications):
//!
//! * membership is static (the converged-network mode the paper's
//!   experiments run in); dynamic join/leave lives in the Chord substrate;
//! * coverage follows the successor convention (`key ∈ (pred, me]`) rather
//!   than Pastry's numerically-closest rule, so the ak-mapping semantics
//!   are bit-identical across overlays — routing, however, is genuinely
//!   prefix-based;
//! * the one-to-many primitive reuses the clockwise-arc partition argument
//!   of the paper's Figure 4 with leaf-set ∪ routing-table entries as
//!   boundaries.
//!
//! # Examples
//!
//! ```
//! use cbps::{Event, Subscription};
//! use cbps_pastry::PastryPubSubBuilder;
//!
//! let mut net = PastryPubSubBuilder::new().nodes(40).seed(7).build()?;
//! let space = net.config().space.clone();
//! let sub = Subscription::builder(&space).range("a0", 100_000, 200_000)?.build()?;
//! let sub_id = net.subscribe(3, sub, None)?;
//! net.run_for_secs(5);
//! net.publish(9, Event::new(&space, vec![150_000, 1, 2, 3])?)?;
//! net.run_for_secs(5);
//! assert_eq!(net.delivered(3).len(), 1);
//! assert_eq!(net.delivered(3)[0].sub_id, sub_id);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod backend;
mod builder;
mod node;
mod state;

pub use backend::{PastryBackend, PastryPubSub, PastryPubSubBuilder};
pub use builder::build_pastry_stable;
pub use node::PastryNode;
pub use state::{common_prefix_len, PastryConfig, PastryState};
