//! Subsystem event handlers behind the typed event bus.
//!
//! The [`crate::world::World`] dispatcher does no work of its own: each
//! [`crate::event::Event`] group routes to the `on_*` method of one
//! module here, and each module is a plain `impl World` block —
//!
//! | sub-enum                      | entry point | module     |
//! |-------------------------------|-------------|------------|
//! | [`crate::event::DaemonEvent`] | `on_daemon` | [`daemon`] |
//! | [`crate::event::NicEvent`]    | `on_nic`    | [`nic`]    |
//! | [`crate::event::AppEvent`]    | `on_app`    | [`app`]    |
//! | [`crate::event::SwitchEvent`] | `on_switch` | [`switch`] |
//! | [`crate::event::FmEvent`]     | `on_fm`     | [`fm`]     |
//!
//! A module's private methods are its own state machine; the methods
//! other modules call are `pub(crate)`.

pub mod app;
pub mod daemon;
pub mod fm;
pub mod nic;
pub mod switch;
