/* Allocated size of a file (st_blocks * 512): what it occupies on disk.
   The mmap store grows its page files by ftruncate in doubling steps,
   so their apparent size says little about the bytes written. */
#include <sys/stat.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value perfbench_allocated_bytes(value path)
{
  struct stat st;
  if (stat(String_val(path), &st) != 0) return Val_long(0);
  return Val_long((long)st.st_blocks * 512);
}
