//! Panic-containment helpers.
//!
//! A fault-injection campaign *expects* applications under study to
//! misbehave — an injected fault that tickles a real bug often ends in a
//! panic inside an application callback. The harness must convert that
//! unwind into a typed [`ExperimentFailure::AppPanic`](loki_core::campaign::ExperimentFailure)
//! without losing the diagnostic, so the payload-to-text conversion lives
//! here, used by the node actor, the campaign driver, and the campaign
//! pipeline's analysis containment alike.

use std::any::Any;

/// Renders a caught panic payload as a human-readable note.
///
/// `std::panic!` payloads are `&'static str` (literal message) or `String`
/// (formatted message); anything else — `panic_any` with an arbitrary
/// value — degrades to a fixed placeholder rather than being dropped.
pub fn panic_note(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    #[test]
    fn renders_common_payloads() {
        let err = catch_unwind(|| panic!("literal")).unwrap_err();
        assert_eq!(panic_note(err.as_ref()), "literal");

        let code = 7;
        let err = catch_unwind(move || panic!("formatted {code}")).unwrap_err();
        assert_eq!(panic_note(err.as_ref()), "formatted 7");

        let err = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_note(err.as_ref()), "non-string panic payload");
    }
}
