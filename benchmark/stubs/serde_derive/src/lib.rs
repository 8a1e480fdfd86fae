//! Offline stand-in for `serde_derive`.
//!
//! The derives accept `#[serde(...)]` attributes and expand to nothing: the
//! benchmark never serializes an index, and the stand-in `serde_json` asks
//! for no trait bound, so no impl is needed.
use proc_macro::TokenStream;

/// `#[derive(Serialize)]`: accepted, expands to nothing.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// `#[derive(Deserialize)]`: accepted, expands to nothing.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
