"""The repo's end-to-end benchmark suite (see README.md in this directory)."""
