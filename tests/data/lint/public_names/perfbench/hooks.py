HOOKS = {"mod": ("by_string",)}
