"""End-to-end benchmark of the artifact path and the query path."""
